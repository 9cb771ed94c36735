package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/soc"
)

// Table2Row is one evaluated platform (Table 2).
type Table2Row struct {
	Board   string
	SoCName string
	CPU     string
	Cores   int
	PMIC    string
	L1D     string
	L1I     string
	L2      string
	IRAM    string
}

// Table2Result lists the evaluated platforms.
type Table2Result struct{ Rows []Table2Row }

// Table2 reports the device catalog.
func Table2() *Table2Result {
	res := &Table2Result{}
	for _, d := range soc.Catalog() {
		row := Table2Row{
			Board:   d.Board,
			SoCName: d.SoCName,
			CPU:     d.CPUDesc,
			Cores:   d.Cores,
			PMIC:    d.PMICName,
			L1D:     fmt.Sprintf("%dKB/%dway", d.L1D.SizeBytes/1024, d.L1D.Ways),
			L1I:     fmt.Sprintf("%dKB/%dway", d.L1I.SizeBytes/1024, d.L1I.Ways),
			L2:      fmt.Sprintf("%dKB/%dway", d.L2.SizeBytes/1024, d.L2.Ways),
			IRAM:    "-",
		}
		if d.IRAMBytes > 0 {
			row.IRAM = fmt.Sprintf("%dKB @%#x", d.IRAMBytes/1024, d.IRAMBase)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// String renders Table 2.
func (r *Table2Result) String() string {
	var b strings.Builder
	b.WriteString("Table 2: evaluated platforms and SoCs\n")
	fmt.Fprintf(&b, "%-16s %-10s %-14s %-18s %-12s %-12s %-12s %s\n",
		"Board", "SoC", "CPU", "PMIC", "L1D", "L1I", "L2", "iRAM")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %-10s %-14s %-18s %-12s %-12s %-12s %s\n",
			row.Board, row.SoCName, row.CPU, row.PMIC, row.L1D, row.L1I, row.L2, row.IRAM)
	}
	return b.String()
}

// Table3Row is one probe point (Table 3).
type Table3Row struct {
	Board          string
	Pad            string
	NominalVolts   float64
	TargetMemories []string
	Domain         string
}

// Table3Result lists the PCB test pads the attack probes.
type Table3Result struct{ Rows []Table3Row }

// Table3 reports the probe-point map.
func Table3() *Table3Result {
	res := &Table3Result{}
	for _, d := range soc.Catalog() {
		volts := d.CoreVolts
		domain := d.CoreDomainName
		if d.PadDomain == soc.MemoryDomain {
			volts = d.MemVolts
			domain = d.MemDomainName
		}
		res.Rows = append(res.Rows, Table3Row{
			Board:          d.Board,
			Pad:            d.TestPad,
			NominalVolts:   volts,
			TargetMemories: d.TargetMemories,
			Domain:         fmt.Sprintf("%s (%s)", capitalize(d.PadDomain.String()), domain),
		})
	}
	return res
}

// String renders Table 3.
func (r *Table3Result) String() string {
	var b strings.Builder
	b.WriteString("Table 3: power-probe test points\n")
	fmt.Fprintf(&b, "%-16s %-8s %-10s %-22s %s\n", "Board", "Pad", "Nominal", "Target memories", "Power domain")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %-8s %-10s %-22s %s\n",
			row.Board, row.Pad, fmt.Sprintf("%.1fV", row.NominalVolts),
			strings.Join(row.TargetMemories, ", "), row.Domain)
	}
	return b.String()
}

// Figure4Result is the PMIC/power topology of each board.
type Figure4Result struct {
	// Descriptions maps board name to its rendered power network.
	Descriptions map[string]string
	Order        []string
}

// Figure4 renders each board's power-supply structure: regulator
// topology (buck vs LDO), domains, loads and pads.
func Figure4(_ context.Context, seed uint64) (*Figure4Result, error) {
	res := &Figure4Result{Descriptions: map[string]string{}}
	for _, spec := range soc.Catalog() {
		b, _, err := newBoard(spec, soc.Options{}, seed)
		if err != nil {
			return nil, err
		}
		res.Descriptions[spec.Board] = b.PowerNetwork().Describe()
		res.Order = append(res.Order, spec.Board)
	}
	return res, nil
}

// String renders Figure 4.
func (r *Figure4Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 4: power-supply topology (PMIC regulators, domains, pads)\n")
	for _, name := range r.Order {
		fmt.Fprintf(&b, "--- %s ---\n%s", name, r.Descriptions[name])
	}
	return b.String()
}

// Figure5Result is the recorded attack-step trace of a standard run.
type Figure5Result struct {
	Device string
	Steps  []core.Step
}

// Figure5 executes a reference Volt Boot run and returns the §6.1 step
// trace the paper summarizes in Figure 5.
func Figure5(_ context.Context, seed uint64) (*Figure5Result, error) {
	b, _, err := newBoard(soc.BCM2711(), soc.Options{}, seed)
	if err != nil {
		return nil, err
	}
	victim, _, err := core.VictimNOPFillImage(b.Spec())
	if err != nil {
		return nil, err
	}
	if err := core.RunVictim(b, victim, 10_000_000); err != nil {
		return nil, err
	}
	ext, err := core.VoltBootCaches(b, core.DefaultAttackConfig())
	if err != nil {
		return nil, err
	}
	return &Figure5Result{Device: ext.Device, Steps: ext.Trace}, nil
}

// String renders Figure 5.
func (r *Figure5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: attack execution steps (%s)\n", r.Device)
	for _, s := range r.Steps {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	return b.String()
}

// Figure6Result substitutes for the board photographs: a textual pad map.
type Figure6Result struct {
	Entries []string
}

// Figure6 renders the probe-point locations. The original figure is a set
// of photographs; the reproduction substitutes the machine-readable pad
// map (documented in DESIGN.md).
func Figure6() *Figure6Result {
	res := &Figure6Result{}
	for _, d := range soc.Catalog() {
		volts := d.CoreVolts
		if d.PadDomain == soc.MemoryDomain {
			volts = d.MemVolts
		}
		res.Entries = append(res.Entries, fmt.Sprintf(
			"%s: probe pad %s near PMIC %s, %.1fV rail feeding %s",
			d.Board, d.TestPad, d.PMICName, volts, strings.Join(d.TargetMemories, "/")))
	}
	return res
}

// String renders Figure 6.
func (r *Figure6Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 6 (photo substitution): probe attachment points\n")
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}
