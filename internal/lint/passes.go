package lint

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/diag"
)

// leakPass reports sends whose messages are provably never received:
// leftover pending sends in final configurations (non-blocking mode) and
// sends blocked forever in give-up configurations (blocking mode).
func leakPass(c *Context) {
	seen := map[int]bool{}
	emit := func(node int, procs, detail string) {
		if seen[node] {
			return
		}
		seen[node] = true
		n := c.G.Node(node)
		if n == nil {
			return
		}
		d := diag.New(diag.CodeMessageLeak, c.Path, n.Span,
			fmt.Sprintf("message sent by processes %s is never received", procs))
		d.Explain = detail
		d.Hint = "check the destination expression and the receiver's guard conditions"
		c.Emit(d)
	}
	for _, fin := range c.Res.Finals {
		for _, p := range fin.Pending {
			emit(p.Node, p.Senders.String(),
				"the program terminates with this message still in flight")
		}
	}
	for _, t := range c.Res.Tops {
		for _, ps := range t.Sets {
			if ps.Blocked && (ps.Node.Kind == cfg.Send || ps.Node.Kind == cfg.SendRecv) {
				emit(ps.Node.ID, ps.Range.String(),
					"no matching receive exists on any path the analysis completed")
			}
		}
	}
}

// deadlockPass reports receives blocked with no possible matching send.
func deadlockPass(c *Context) {
	seen := map[int]bool{}
	for _, t := range c.Res.Tops {
		for _, ps := range t.Sets {
			if !ps.Blocked || ps.Node.Kind != cfg.Recv || seen[ps.Node.ID] {
				continue
			}
			seen[ps.Node.ID] = true
			d := diag.New(diag.CodeDeadlock, c.Path, ps.Node.Span,
				fmt.Sprintf("receive by processes %s has no matching send", ps.Range))
			d.Explain = "the processes block here forever in some execution the analysis explored"
			d.Hint = "check the source expression and that a matching send is reachable"
			c.Emit(d)
		}
	}
}

// tagMismatchPass reports matched send/receive pairs whose message tags
// disagree.
func tagMismatchPass(c *Context) {
	seen := map[[2]int]bool{}
	for _, m := range c.Res.Matches {
		sn, rn := c.G.Node(m.SendNode), c.G.Node(m.RecvNode)
		if sn == nil || rn == nil || sn.Tag == "" || rn.Tag == "" || sn.Tag == rn.Tag {
			continue
		}
		key := [2]int{m.SendNode, m.RecvNode}
		if seen[key] {
			continue
		}
		seen[key] = true
		d := diag.New(diag.CodeTagMismatch, c.Path, sn.Span,
			fmt.Sprintf("send with tag %q matches a receive expecting tag %q", sn.Tag, rn.Tag))
		d.Explain = fmt.Sprintf("the topology matches senders %s with receivers %s, but the tags differ",
			m.Sender, m.Receiver)
		d.Hint = "align the tag annotations on both operations"
		d.Related = append(d.Related, diag.Related{
			Span:    rn.Span,
			Message: fmt.Sprintf("the matching receive expects tag %q", rn.Tag),
		})
		c.Emit(d)
	}
}

// rankBoundsPass reports communication targets the constraint-graph client
// proves out of [0, np-1] (PSDF-E004), and — in strict mode — targets it
// could neither prove nor refute (PSDF-W004). A facet that was matched in a
// clean analysis counts as proven by the match itself.
func rankBoundsPass(c *Context) {
	clean := c.Res.Clean()
	for _, g := range c.bounds {
		n := c.G.Node(g.node)
		if n == nil {
			continue
		}
		what := "send destination"
		if g.dir == "src" {
			what = "receive source"
		}
		switch g.status {
		case core.BoundsViolated:
			d := diag.New(diag.CodeRankBounds, c.Path, n.Span,
				fmt.Sprintf("%s is out of bounds: %s", what, g.witness.Detail))
			d.Explain = fmt.Sprintf("the constraint-graph client proved the violation for range %s", g.witness.Range)
			d.Hint = "guard the operation so boundary processes skip it (e.g. `if id <= np - 2 then ... end`)"
			c.Emit(d)
		case core.BoundsProven:
			// fine
		default:
			if clean && c.matched[g.facet] {
				// The match search found a partner for every process; the
				// facet is in bounds even though the direct proof failed.
				continue
			}
			if !c.Opts.Strict {
				continue
			}
			why := "the needed facts are missing from the dataflow state"
			if g.status == core.BoundsNonAffine {
				why = "the expression is outside the affine difference-constraint fragment"
			}
			d := diag.New(diag.CodeBoundsUnproven, c.Path, n.Span,
				fmt.Sprintf("%s could not be proved inside [0, np-1]", what))
			d.Explain = why
			c.Emit(d)
		}
	}
}

// maxTraceSteps caps the blame-trace related locations per finding.
const maxTraceSteps = 20

// topBlamePass reports give-up configurations not already explained by the
// leak/deadlock passes, pointing at the operation that first widened to ⊤
// and attaching the explored-pCFG path that led there.
func topBlamePass(c *Context) {
	seenWhy := map[string]bool{}
	for _, t := range c.Res.Tops {
		blamedElsewhere := false
		for _, ps := range t.Sets {
			if ps.Blocked && ps.Node.IsComm() {
				blamedElsewhere = true
				break
			}
		}
		if blamedElsewhere || seenWhy[t.TopWhy] {
			continue
		}
		seenWhy[t.TopWhy] = true
		sp := c.NodeSpan(t.TopNode)
		msg := "the analysis gave up and cannot verify this program"
		if t.TopNode > 0 {
			msg = "the analysis gave up at this operation"
		}
		d := diag.New(diag.CodeAnalysisGaveUp, c.Path, sp, msg)
		d.Explain = t.TopWhy
		d.Hint = "restructure the operation (or its guards) into the supported affine fragment"
		for i, e := range c.Res.TraceTo(t.TopKey) {
			if i >= maxTraceSteps {
				d.Related = append(d.Related, diag.Related{
					Message: fmt.Sprintf("... trace truncated after %d steps", maxTraceSteps),
				})
				break
			}
			rel := diag.Related{Message: "step: " + e.Action}
			if id := e.BlameNode(); id > 0 {
				rel.Span = c.NodeSpan(id)
			}
			d.Related = append(d.Related, rel)
		}
		c.Emit(d)
	}
}

// deadCodePass reports user-written statements no process set ever reached.
// It only runs on clean analyses (a give-up leaves reachability unknown) and
// only flags the frontier — unvisited nodes whose predecessors were all
// visited — so one dead branch yields one finding, not one per statement.
func deadCodePass(c *Context) {
	if !c.Res.Clean() || len(c.Res.Visited) == 0 {
		return
	}
	visited := func(n *cfg.Node) bool {
		return n.ID < len(c.Res.Visited) && c.Res.Visited[n.ID]
	}
	for _, n := range c.G.Nodes {
		if visited(n) || n.Synthetic || n.Kind == cfg.Entry || n.Kind == cfg.Exit {
			continue
		}
		frontier := false
		for _, e := range n.Preds {
			if visited(e.From) {
				frontier = true
				break
			}
		}
		if !frontier {
			continue
		}
		d := diag.New(diag.CodeDeadCode, c.Path, n.Span,
			"no process can ever execute this statement")
		d.Explain = "the process set reaching this program point is provably empty for every np"
		d.Hint = "remove the dead code or fix the enclosing guard"
		c.Emit(d)
	}
}
