package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// runSim implements `psdf sim`: execute one program on the concrete
// message-passing simulator for a fixed process count and report the
// delivered messages, print output, leaks and deadlocks — the ground truth
// the static analysis is validated against. Exit codes: 0 ok, 1 deadlock,
// error (or, with -fail-on-findings, leaks and assertion failures), 2
// usage.
func runSim(args []string) int {
	fs := flag.NewFlagSet("psdf sim", flag.ExitOnError)
	var (
		np         = fs.Int("np", 4, "number of processes")
		envFlag    = fs.String("env", "", "comma-separated symbol bindings, e.g. nrows=3,ncols=6")
		rendezvous = fs.Bool("rendezvous", false, "blocking (rendezvous) sends instead of buffered FIFO channels")
		events     = fs.Bool("events", true, "print delivered messages")
		failOnFind = fs.Bool("fail-on-findings", false, "exit nonzero on leaked messages or assertion failures")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: psdf sim [flags] program.mpl")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	if err := simulate(fs.Arg(0), *np, *envFlag, *rendezvous, *events, *failOnFind); err != nil {
		fmt.Fprintln(os.Stderr, "psdf sim:", err)
		return 1
	}
	return 0
}

func simulate(path string, np int, envFlag string, rendezvous, events, failOnFind bool) error {
	env, err := parseEnv(envFlag)
	if err != nil {
		return err
	}
	prog, err := loadProgram(path)
	if err != nil {
		return err
	}
	res, err := sim.Run(prog.g, np, sim.Options{Env: env, Rendezvous: rendezvous})
	if err != nil {
		return err
	}
	fmt.Printf("np=%d steps=%d messages=%d\n", res.NP, res.Steps, len(res.Events))
	if events {
		for _, e := range res.Events {
			fmt.Printf("  %3d -> %3d   (send n%d -> recv n%d)\n", e.Sender, e.Receiver, e.SendNode, e.RecvNode)
		}
	}
	for _, p := range res.Prints {
		fmt.Printf("  proc %d prints %d (n%d)\n", p.Proc, p.Value, p.Node)
	}
	for _, f := range res.Failures {
		fmt.Printf("  ASSERT FAILED on proc %d at n%d: %s\n", f.Proc, f.Node, f.Cond)
	}
	for _, l := range res.Leaked {
		fmt.Printf("  LEAKED message from proc %d (send n%d, addressed to %d)\n", l.Sender, l.SendNode, l.Receiver)
	}
	if res.Deadlocked {
		return fmt.Errorf("deadlock: processes %v blocked", res.Blocked)
	}
	if failOnFind && (len(res.Leaked) > 0 || len(res.Failures) > 0) {
		return fmt.Errorf("%d leaked message(s), %d assertion failure(s)", len(res.Leaked), len(res.Failures))
	}
	return nil
}

func parseEnv(s string) (map[string]int64, error) {
	env := map[string]int64{}
	if s == "" {
		return env, nil
	}
	for _, pair := range strings.Split(s, ",") {
		kv := strings.SplitN(pair, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad env binding %q", pair)
		}
		v, err := strconv.ParseInt(strings.TrimSpace(kv[1]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad env value %q: %v", pair, err)
		}
		env[strings.TrimSpace(kv[0])] = v
	}
	return env, nil
}
