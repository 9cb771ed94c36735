// Package board assembles a complete evaluation platform: an SoC, its
// PMIC with per-domain regulator channels, the PCB test pads of Table 3,
// the main power input (USB-C or barrel jack), and the lab apparatus the
// paper uses around the board — a thermal chamber and attachable bench
// supplies.
//
// The board is the attacker's interface: everything the Volt Boot and
// cold boot orchestrators in internal/core do happens through board
// methods (attach a probe to a pad, yank the main supply, wait, replug,
// boot from USB).
package board

import (
	"fmt"
	"sort"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/soc"
)

// Board is one fully wired evaluation platform.
type Board struct {
	//voltvet:nosnap shared simulation clock; owned by the environment and rewound by the SoC snapshot (now/tempC)
	Env *sim.Env
	SoC *soc.SoC
	// PMIC feeds every domain from the main supply input.
	PMIC *power.PMIC
	// Pads are the probe-able test points, keyed by silkscreen name.
	Pads map[string]power.Pad

	mainConnected bool
}

// New builds the platform described by spec, with countermeasure options
// and a silicon seed. Main power starts disconnected.
func New(env *sim.Env, spec soc.DeviceSpec, opts soc.Options, seed uint64) (*Board, error) {
	chip, err := soc.New(env, spec, opts, seed)
	if err != nil {
		return nil, err
	}
	b := &Board{Env: env, SoC: chip, Pads: map[string]power.Pad{}}

	b.PMIC = power.NewPMIC(spec.PMICName)
	// Channel topology per Figure 4: the high-fluctuation core domain
	// rides a buck converter, the memory domain an LDO, I/O an LDO.
	b.PMIC.AddChannel("BUCK1", power.Buck, 6, chip.CoreDom)
	b.PMIC.AddChannel("LDO1", power.LDO, 2, chip.MemDom)
	b.PMIC.AddChannel("LDO2", power.LDO, 1, chip.IODom)

	// Table 3: one documented pad per platform, exposing the domain that
	// feeds the target memories. The other domain is reachable at its
	// decoupling capacitors; expose it under a generic designator.
	target := chip.CoreDom
	other := chip.MemDom
	otherName := "C_MEM"
	if spec.PadDomain == soc.MemoryDomain {
		target, other = chip.MemDom, chip.CoreDom
		otherName = "C_CORE"
	}
	b.Pads[spec.TestPad] = power.Pad{Name: spec.TestPad, Domain: target}
	b.Pads[otherName] = power.Pad{Name: otherName, Domain: other}

	return b, nil
}

// Spec returns the device specification.
func (b *Board) Spec() soc.DeviceSpec { return b.SoC.Spec }

// TargetPad returns the Table 3 pad for this platform.
func (b *Board) TargetPad() power.Pad { return b.Pads[b.Spec().TestPad] }

// PadByName looks up a probe point.
func (b *Board) PadByName(name string) (power.Pad, error) {
	p, ok := b.Pads[name]
	if !ok {
		return power.Pad{}, fmt.Errorf("board: no pad %q on %s", name, b.Spec().Board)
	}
	return p, nil
}

// MainConnected reports whether the main supply is plugged in.
func (b *Board) MainConnected() bool { return b.mainConnected }

// ConnectMain plugs in the main supply: the PMIC sequences every domain
// up.
func (b *Board) ConnectMain() {
	if b.mainConnected {
		return
	}
	b.mainConnected = true
	b.PMIC.ConnectInput()
}

// DisconnectMain abruptly unplugs the main supply — the §6.1 step 3 power
// cycle. Core-supplying domains held by an external probe see the
// device's disconnect current surge; an under-provisioned probe droops
// (§6: "a power supply capable of supplying sufficient current is
// essential").
func (b *Board) DisconnectMain() {
	if !b.mainConnected {
		return
	}
	b.mainConnected = false
	b.PMIC.DisconnectInput(power.Surge{
		Amps:     b.Spec().DisconnectSurgeAmps,
		Duration: 5 * sim.Microsecond,
		SagVolts: 0.1,
	})
}

// AttachProbe connects a bench supply to the named pad at the pad
// domain's nominal voltage (§6.1 step 2: "measure the nominal voltage at
// the pin and attach an external power supply probe at the same level").
func (b *Board) AttachProbe(padName string, supply *power.BenchSupply) error {
	pad, err := b.PadByName(padName)
	if err != nil {
		return err
	}
	supply.SetVolts(pad.Domain.NominalVolts())
	supply.AttachTo(pad.Domain)
	return nil
}

// PowerNetwork returns the Figure 4 view of the board's power structure.
func (b *Board) PowerNetwork() *power.Network {
	pads := make([]power.Pad, 0, len(b.Pads))
	// Deterministic order: documented pad first, then the rest sorted by
	// silkscreen name (map iteration order would vary run to run).
	pads = append(pads, b.TargetPad())
	names := make([]string, 0, len(b.Pads))
	for name := range b.Pads {
		if name != b.Spec().TestPad {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		pads = append(pads, b.Pads[name])
	}
	return &power.Network{PMIC: b.PMIC, Pads: pads}
}

// Chamber is the TestEquity-style thermal chamber of §3: it soaks the
// whole board at a set point. The simulation idealizes the hour-long
// static soak into an instantaneous temperature change.
type Chamber struct {
	env *sim.Env
}

// NewChamber returns a chamber controlling the environment temperature.
func NewChamber(env *sim.Env) *Chamber { return &Chamber{env: env} }

// Soak sets the chamber (and thus the die) temperature.
func (c *Chamber) Soak(celsius float64) {
	c.env.SetTemperatureC(celsius)
}
