package harness

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"repro/internal/exp"
)

// The section table: every section of the evaluation is one entry of
// sections, which is the only place that says which cells a section
// needs and how it renders them. Everything else reads it: FigureNames,
// KnownFigure, PlanFigure (so services above the harness — the sweep
// daemon in particular — can enumerate, execute or cache exactly a
// figure's cells) and RenderSections, which renders any list of sections
// as a pure function of the shared cell results.

// grid is the cells of one section as a cross product, in exp.Cross order
// (workloads, engines, thread counts, seeds), and the configuration they
// run under.
type grid struct {
	workloads []string
	engines   []EngineKind
	threads   []int
	seeds     []uint64
	config    exp.CellConfig
}

func (g grid) plan() exp.Plan { return exp.Cross(g.workloads, g.engines, g.threads, g.seeds) }

// cellResults are a section's cell results in plan order.
type cellResults = []exp.Result[exp.CellResult]

// section is one renderable part of the evaluation.
type section struct {
	name string
	// cells returns the section's grid under o (defaults filled in);
	// threads applies to the sections that take a thread count. Nil for
	// a static section.
	cells func(threads int, o Options) grid
	// render writes the section from its plan-ordered cell results and
	// returns the data the section's callers consume (see Figure1 …
	// FigureOLTP for each type).
	render func(w io.Writer, g grid, rs cellResults) any
}

// sections lists the renderable sections in presentation order.
var sections = []section{
	{
		name:   "table1",
		render: func(w io.Writer, _ grid, _ cellResults) any { Table1(w); return nil },
	},
	{
		name: "figure1",
		cells: func(threads int, o Options) grid {
			return grid{o.filterWorkloads(Fig1Workloads), []EngineKind{TwoPL}, []int{threads}, o.Seeds, o.cellConfig()}
		},
		render: func(w io.Writer, g grid, rs cellResults) any { return renderFigure1(w, g, rs) },
	},
	{
		name: "figure7",
		cells: func(_ int, o Options) grid {
			return grid{o.filterWorkloads(registryNames()), fig7Engines, Fig7Threads, o.Seeds, o.cellConfig()}
		},
		render: func(w io.Writer, g grid, rs cellResults) any { return renderFigure7(w, g, rs) },
	},
	{
		name: "figure8",
		cells: func(_ int, o Options) grid {
			return grid{o.filterWorkloads(registryNames()), fig7Engines, Fig8Threads, o.Seeds, o.cellConfig()}
		},
		render: func(w io.Writer, g grid, rs cellResults) any { return renderFigure8(w, g, rs) },
	},
	{
		name: "table2",
		cells: func(threads int, o Options) grid {
			o.UnboundedVersions = true
			return grid{o.filterWorkloads(registryNames()), []EngineKind{SITM}, []int{threads}, o.Seeds, o.cellConfig()}
		},
		render: func(w io.Writer, g grid, rs cellResults) any { return renderTable2(w, g, rs) },
	},
	{
		// The §3 report reads per-cell measurements, not averages, so it
		// runs the first seed only.
		name: "mvm",
		cells: func(threads int, o Options) grid {
			o.measureMVM = true
			return grid{o.filterWorkloads(registryNames()), []EngineKind{SITM}, []int{threads}, o.Seeds[:1], o.cellConfig()}
		},
		render: func(w io.Writer, g grid, rs cellResults) any { return renderMVMReport(w, g, rs) },
	},
	{
		name: "figure-oltp",
		cells: func(_ int, o Options) grid {
			return grid{oltpFigureNames(o), fig7Engines, OLTPThreads, o.Seeds, o.cellConfig()}
		},
		render: func(w io.Writer, g grid, rs cellResults) any { return renderFigureOLTP(w, g, rs) },
	},
}

// FigureNames lists the renderable sections in presentation order.
// "table1" is static (no cells); every other section sweeps a plan.
var FigureNames = func() []string {
	names := make([]string, len(sections))
	for i, s := range sections {
		names[i] = s.name
	}
	return names
}()

// lookupSection returns the section named name (case-insensitive).
func lookupSection(name string) (*section, error) {
	for i := range sections {
		if strings.EqualFold(sections[i].name, name) {
			return &sections[i], nil
		}
	}
	return nil, fmt.Errorf("harness: unknown figure %q (valid: %s)",
		name, strings.Join(FigureNames, ", "))
}

// KnownFigure reports whether name names a renderable section.
func KnownFigure(name string) bool {
	_, err := lookupSection(name)
	return err == nil
}

// FigurePlan is the cell-layer footprint of one figure: the exact plan
// its render executes and the cell configuration those cells run under
// (which participates in their cache keys).
type FigurePlan struct {
	Figure string
	Plan   exp.Plan
	Config exp.CellConfig
}

// PlanFigure returns the plan and cell configuration of the named
// figure under the given options — exactly the cells RenderFigureText
// runs, so a cache populated from this plan serves that call without
// simulating. threads applies to the sections that take a thread count
// (figure1, table2, mvm).
func PlanFigure(figure string, threads int, o Options) (FigurePlan, error) {
	s, err := lookupSection(figure)
	if err != nil {
		return FigurePlan{}, err
	}
	fp := FigurePlan{Figure: s.name}
	if s.cells != nil {
		g := s.cells(threads, o.withDefaults())
		fp.Plan, fp.Config = g.plan(), g.config
	}
	return fp, nil
}

// Section is one section rendered by RenderSections: its canonical text
// and the data its renderer returned (nil for table1; see Figure1 …
// FigureOLTP for the other sections' types).
type Section struct {
	Name string
	Text []byte
	Data any
}

// RenderSections renders the named sections in order. It plans every
// section first and simulates each distinct (cell, configuration) once —
// Figure 1's and Figure 7's cells are a subset of Figure 8's — with one
// CellRunner.Run per distinct configuration, then renders each section
// from its own plan-ordered results. The memo lives for this call only,
// so rendering a section twice simulates it twice (or serves it twice
// from the options' result cache).
func RenderSections(names []string, threads int, o Options) ([]Section, error) {
	o = o.withDefaults()
	type key struct {
		cell exp.Cell
		cfg  exp.CellConfig
	}
	type planned struct {
		s    *section
		g    grid
		plan exp.Plan
	}
	secs := make([]planned, len(names))
	var configs []exp.CellConfig
	union := make(map[exp.CellConfig]exp.Plan)
	seen := make(map[key]bool)
	for i, name := range names {
		s, err := lookupSection(name)
		if err != nil {
			return nil, err
		}
		secs[i].s = s
		if s.cells == nil {
			continue
		}
		g := s.cells(threads, o)
		secs[i].g, secs[i].plan = g, g.plan()
		for _, c := range secs[i].plan {
			if seen[key{c, g.config}] {
				continue
			}
			seen[key{c, g.config}] = true
			if _, ok := union[g.config]; !ok {
				configs = append(configs, g.config)
			}
			union[g.config] = append(union[g.config], c)
		}
	}
	done := make(map[key]exp.Result[exp.CellResult], len(seen))
	for _, cfg := range configs {
		rs, err := o.cellRunner(cfg).Run(union[cfg])
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			done[key{r.Cell, cfg}] = r
		}
	}
	out := make([]Section, len(names))
	for i, p := range secs {
		rs := make(cellResults, len(p.plan))
		for j, c := range p.plan {
			rs[j] = done[key{c, p.g.config}]
		}
		var buf bytes.Buffer
		data := p.s.render(&buf, p.g, rs)
		out[i] = Section{Name: p.s.name, Text: buf.Bytes(), Data: data}
	}
	return out, nil
}

// RenderFigureText renders the named figure as its canonical text bytes.
// Cells run through the options' worker pool and result cache; with a
// cache warmed by the figure's plan (PlanFigure) no simulation happens
// and the bytes are identical to a cold render.
func RenderFigureText(figure string, threads int, o Options) ([]byte, error) {
	secs, err := RenderSections([]string{figure}, threads, o)
	if err != nil {
		return nil, err
	}
	return secs[0].Text, nil
}

// mustRender renders one section to w and returns its data, panicking
// on an unknown workload — the Figure1 … FigureOLTP wrappers' callers
// validate names with WorkloadByName first.
func mustRender(w io.Writer, figure string, threads int, o Options) any {
	secs, err := RenderSections([]string{figure}, threads, o)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	w.Write(secs[0].Text)
	return secs[0].Data
}
