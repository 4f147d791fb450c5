package query

import (
	"fmt"
	"strings"

	"probe/internal/planner"
	"probe/internal/relation"
)

// ExplainText renders the plan as an indented operator tree, one
// operator per line, leaf (the access path) last. The access-path
// line of a range query is the index scan that execution runs, with
// the index's page estimate when the engine has an index to price it
// (on the DB and in a transaction, not on the cluster); a join renders
// the same everywhere.
// Rendering is deterministic for a given dataset (the golden tests
// under testdata/explain byte-compare it).
func (p *Plan) ExplainText(eng Engine) string {
	lines := []string{}
	sel := p.sel
	if sel.Limit >= 0 {
		lines = append(lines, fmt.Sprintf("limit %d", sel.Limit))
	}
	if len(sel.OrderBy) > 0 {
		keys := make([]string, len(sel.OrderBy))
		for i, k := range sel.OrderBy {
			keys[i] = k.Col
			if k.Desc {
				keys[i] += " desc"
			}
		}
		lines = append(lines, "sort by "+strings.Join(keys, ", "))
	}
	if sel.Distinct {
		lines = append(lines, "distinct")
	}
	if !sel.Star {
		names := make([]string, len(p.out))
		for i, c := range p.out {
			names[i] = c.Name
		}
		lines = append(lines, "select "+strings.Join(names, ", "))
	}
	if p.grouped {
		var parts []string
		for _, a := range p.aggs {
			col := a.Col
			if a.Func == relation.Count {
				col = "*"
			}
			parts = append(parts, fmt.Sprintf("%v(%s) as %s", a.Func, col, a.As))
		}
		line := "aggregate"
		if len(sel.GroupBy) > 0 {
			line = "group by " + strings.Join(sel.GroupBy, ", ")
		}
		if len(parts) > 0 {
			line += ": " + strings.Join(parts, ", ")
		}
		lines = append(lines, line)
	}
	if len(p.residual) > 0 {
		parts := make([]string, len(p.residual))
		for i, pred := range p.residual {
			parts[i] = pred.String()
		}
		lines = append(lines, "filter "+strings.Join(parts, " AND "))
	}
	lines = append(lines, p.accessLine(eng))

	var b strings.Builder
	for i, line := range lines {
		b.WriteString(strings.Repeat("  ", i))
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// count renders n things, in the singular for one.
func count(n int, thing string) string {
	if n != 1 {
		thing += "s"
	}
	return fmt.Sprintf("%d %s", n, thing)
}

// accessLine describes the leaf access path.
func (p *Plan) accessLine(eng Engine) string {
	if p.empty {
		return "empty result (contradictory WHERE bounds)"
	}
	switch p.mode {
	case modeNearest:
		return fmt.Sprintf("nearest %d to %v on %s (euclidean, expanding search)",
			p.nearest.K, p.nearest.Point.Coords, TableName)
	case modeJoin:
		return fmt.Sprintf("spatial merge join: %s against %s in z order",
			count(len(p.regions), "region"), TableName)
	default:
		if t := eng.Table(); t != nil {
			if pl, err := planner.PlanRange(t, p.scanBox, planner.Config{}); err == nil {
				return pl.Description
			}
		}
		return fmt.Sprintf("index scan on %s %v (no cost model)", TableName, p.scanBox)
	}
}
