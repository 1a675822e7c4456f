// bugfinder demonstrates the error-detection client analyses the paper
// motivates in Section I: message leaks (messages sent but never received),
// potential deadlocks, and inconsistent message types between matched
// senders and receivers, reported as lint diagnostics.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/lint"
	"repro/internal/source"
)

func analyzeAndLint(name, src string) {
	fmt.Printf("== %s ==\n%s\n", name, src)
	tgt, err := lint.Load(name+".mpl", src, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rep := lint.Run(tgt, lint.Options{})
	if len(rep.Diags) == 0 {
		fmt.Println("lint: ok")
	}
	diag.WriteText(os.Stdout, map[string]*source.File{tgt.Path: tgt.File}, rep.Diags)
	fmt.Println()
}

func main() {
	// A correct program: no findings.
	analyzeAndLint("clean exchange", `
assume np >= 3
if id == 0 then
  send x -> 1 : halo
elif id == 1 then
  recv y <- 0 : halo
end`)

	// The root sends one extra message nobody receives.
	analyzeAndLint("leaky broadcast", bench.LeakyBroadcast().Src)

	// The matched pair disagrees on the message type.
	analyzeAndLint("type mismatch", bench.TypeMismatch().Src)

	// A receive whose sender does not exist: potential deadlock.
	analyzeAndLint("orphan receive", `
assume np >= 3
if id == 0 then
  recv y <- 1
end`)
}
