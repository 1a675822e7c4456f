// Package lint runs coded diagnostic passes over a completed pCFG dataflow
// analysis. Each pass inspects the analysis result (terminal configurations,
// the communication topology, rank-bounds observations, give-up provenance)
// and emits structured diag.Diagnostics with stable codes and source spans.
// The psdf CLI runs the passes on every program it analyzes and renders
// the findings as text, JSON or SARIF (`psdf -format`).
package lint

import (
	"bytes"
	"slices"
	"strconv"

	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

// Target is one program prepared for linting: the parsed source plus the
// completed dataflow analysis over its CFG.
type Target struct {
	Path string
	Prog *ast.Program
	File *source.File
	G    *cfg.Graph
	Res  *core.Result
}

// Options configures a lint run.
type Options struct {
	// Strict reports rank-bounds targets that could not be proved in-bounds
	// (PSDF-W004) even when nothing refutes them. Off by default: unproven
	// is common for correct non-affine patterns.
	Strict bool
}

// BoundsSummary aggregates the rank-bounds verdicts per communication facet
// (a send destination or receive source at one CFG node).
type BoundsSummary struct {
	Proven        int // proved in [0, np-1] by the constraint graph
	ProvenByMatch int // not proved directly, but matched in a clean analysis
	Violated      int // provably out of bounds
	Unknown       int // affine but undecided
	NonAffine     int // outside the affine fragment
	Total         int
}

// Report is the outcome of linting one target.
type Report struct {
	Diags  []diag.Diagnostic
	Bounds BoundsSummary
}

// HasErrors reports whether any finding is error-severity.
func (r *Report) HasErrors() bool { return diag.HasErrors(r.Diags) }

// Load parses, checks and analyzes src (named path in diagnostics) and
// returns the lint target. Rank-bounds recording is forced on so the
// rank-bounds pass has observations to work with; when no Matcher is set,
// the CLI-default cartesian client is used. The error covers parse,
// semantic and analysis failures.
func Load(path, src string, coreOpts core.Options) (*Target, error) {
	prog, err := parser.Parse(path, src)
	if err != nil {
		return nil, err
	}
	if _, err := sem.Check(prog); err != nil {
		return nil, err
	}
	g := cfg.Build(prog)
	coreOpts.RecordCommBounds = true
	if coreOpts.Matcher == nil {
		coreOpts.Matcher = cartesian.New(core.ScanInvariants(g))
	}
	res, err := core.Analyze(g, coreOpts)
	if err != nil {
		return nil, err
	}
	return &Target{Path: path, Prog: prog, File: prog.File, G: g, Res: res}, nil
}

// Context is the environment a pass runs in.
type Context struct {
	*Target
	Opts   Options
	report *Report
	// bounds holds the rank-bounds verdict of each communication facet and
	// matched the facets the topology matched, both computed once per run
	// for the rank-bounds pass and the bounds summary.
	bounds  []boundsGroup
	matched map[facet]bool
}

// Emit records a finding.
func (c *Context) Emit(d diag.Diagnostic) {
	c.report.Diags = append(c.report.Diags, d)
}

// NodeSpan returns the source span of a CFG node, or an invalid span for
// unknown ids.
func (c *Context) NodeSpan(id int) source.Span {
	if n := c.G.Node(id); n != nil {
		return n.Span
	}
	return source.Span{}
}

// Pass is one registered lint check.
type Pass struct {
	// Name identifies the pass, e.g. "rank-bounds".
	Name string
	// Doc is a one-line description for the psdf usage text.
	Doc string
	// Run inspects the context and emits diagnostics.
	Run func(*Context)
}

// passes holds the bundled passes in execution order.
var passes = []Pass{
	{"message-leak", "sends whose messages are never received (PSDF-E001)", leakPass},
	{"deadlock", "receives that may block forever (PSDF-E002)", deadlockPass},
	{"tag-mismatch", "matched operations with differing tags (PSDF-E003)", tagMismatchPass},
	{"rank-bounds", "communication targets outside [0, np-1] (PSDF-E004/W004)", rankBoundsPass},
	{"top-blame", "analysis give-ups with their blame traces (PSDF-E005)", topBlamePass},
	{"dead-code", "statements no process can reach (PSDF-W006)", deadCodePass},
}

// Passes lists the registered passes.
func Passes() []Pass {
	return append([]Pass(nil), passes...)
}

// Run executes every registered pass over the target and returns the sorted
// report.
func Run(t *Target, opts Options) *Report {
	rep := &Report{}
	c := &Context{Target: t, Opts: opts, report: rep, bounds: groupBounds(t.Res), matched: matchedNodes(t.Res)}
	rep.Bounds = summarizeBounds(c)
	for _, p := range passes {
		p.Run(c)
	}
	diag.Sort(rep.Diags)
	return rep
}

// facet is one communication facet: a CFG node and the direction checked
// there ("dest" or "src").
type facet struct {
	node int
	dir  string
}

// compareFacets orders facets as their "node|dir" keys compare as strings,
// the order reports have always listed them in ("10|dest" before "9|dest").
// Both keys render into stack buffers.
func compareFacets(a, b facet) int {
	var ka, kb [32]byte
	return bytes.Compare(a.appendKey(ka[:0]), b.appendKey(kb[:0]))
}

func (f facet) appendKey(dst []byte) []byte {
	return append(append(strconv.AppendInt(dst, int64(f.node), 10), '|'), f.dir...)
}

// boundsGroup is the aggregated verdict for one communication facet.
type boundsGroup struct {
	facet
	status  core.BoundsStatus  // worst observed status
	witness core.CommBoundsObs // the first violated observation
}

// groupBounds folds the per-range observations into one verdict per
// facet: a single violated range condemns the facet; otherwise any
// undecided range demotes proven to unknown/non-affine.
func groupBounds(res *core.Result) []boundsGroup {
	var groups []boundsGroup
	index := map[facet]int{}
	for _, o := range res.CommBounds {
		f := facet{o.Node, o.Dir}
		i, ok := index[f]
		if !ok {
			i = len(groups)
			index[f] = i
			groups = append(groups, boundsGroup{facet: f, status: core.BoundsProven})
		}
		g := &groups[i]
		switch {
		case o.Status == core.BoundsViolated:
			if g.status != core.BoundsViolated {
				g.witness = o
			}
			g.status = core.BoundsViolated
		case g.status == core.BoundsViolated:
			// keep
		case o.Status == core.BoundsNonAffine && g.status != core.BoundsUnknown:
			g.status = core.BoundsNonAffine
		case o.Status == core.BoundsUnknown:
			g.status = core.BoundsUnknown
		}
	}
	slices.SortFunc(groups, func(a, b boundsGroup) int { return compareFacets(a.facet, b.facet) })
	return groups
}

// matchedNodes returns the facets that participate in the communication
// topology: the send side of every match and its receive side.
func matchedNodes(res *core.Result) map[facet]bool {
	m := map[facet]bool{}
	for _, match := range res.Matches {
		m[facet{match.SendNode, "dest"}] = true
		m[facet{match.RecvNode, "src"}] = true
	}
	return m
}

func summarizeBounds(c *Context) BoundsSummary {
	var s BoundsSummary
	clean := c.Res.Clean()
	for _, g := range c.bounds {
		s.Total++
		switch g.status {
		case core.BoundsProven:
			s.Proven++
		case core.BoundsViolated:
			s.Violated++
		default:
			if clean && c.matched[g.facet] {
				s.ProvenByMatch++
			} else if g.status == core.BoundsNonAffine {
				s.NonAffine++
			} else {
				s.Unknown++
			}
		}
	}
	return s
}
