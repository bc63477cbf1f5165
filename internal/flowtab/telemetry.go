package flowtab

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// Source is the telemetry-facing face of a flow table; *Table
// implements it.
type Source interface {
	Name() string
	TabStats() Stats
}

// Info is one table's identity plus counters: the reporting shape the
// management API and operator tooling consume.
type Info struct {
	Name string `json:"name"`
	Stats
}

// Collect snapshots every source into Info rows (never nil).
func Collect(srcs []Source) []Info {
	infos := make([]Info, 0, len(srcs))
	for _, src := range srcs {
		infos = append(infos, Info{Name: src.Name(), Stats: src.TabStats()})
	}
	return infos
}

// RegisterGauges installs the dhl_flowtab_* pull-gauge family for src
// on tel, labeled table="<name>". Cold: the gauges read TabStats only
// at snapshot/scrape time, so armed flow tables cost the hot path
// nothing. Pair with UnregisterGauges when the table is torn down.
func RegisterGauges(tel *telemetry.Registry, src Source) {
	label := fmt.Sprintf("table=%q", src.Name())
	tel.RegisterGauge("dhl_flowtab_entries", label,
		"Live flow entries in the table.",
		func() float64 { return float64(src.TabStats().Entries) })
	tel.RegisterGauge("dhl_flowtab_capacity", label,
		"Flow entries the table can hold at its current size.",
		func() float64 { return float64(src.TabStats().Capacity) })
	tel.RegisterGauge("dhl_flowtab_mem_bytes", label,
		"Bytes allocated by the table (slab, indexes, expiry wheel).",
		func() float64 { return float64(src.TabStats().MemBytes) })
	tel.RegisterGauge("dhl_flowtab_evictions", label+`,reason="idle"`,
		"Flow entries evicted, by reason (idle TTL vs. memory pressure).",
		func() float64 { return float64(src.TabStats().EvictedIdle) })
	tel.RegisterGauge("dhl_flowtab_evictions", label+`,reason="pressure"`,
		"Flow entries evicted, by reason (idle TTL vs. memory pressure).",
		func() float64 { return float64(src.TabStats().EvictedPressure) })
	tel.RegisterGauge("dhl_flowtab_rehashes", label,
		"Completed table growth (index doubling) events.",
		func() float64 { return float64(src.TabStats().Rehashes) })
	tel.RegisterGauge("dhl_flowtab_full_drops", label,
		"Inserts refused because the table was at its memory budget.",
		func() float64 { return float64(src.TabStats().FullDrops) })
}

// UnregisterGauges removes the gauges RegisterGauges installed for a
// table named name.
func UnregisterGauges(tel *telemetry.Registry, name string) {
	label := fmt.Sprintf("table=%q", name)
	tel.UnregisterGauge("dhl_flowtab_entries", label)
	tel.UnregisterGauge("dhl_flowtab_capacity", label)
	tel.UnregisterGauge("dhl_flowtab_mem_bytes", label)
	tel.UnregisterGauge("dhl_flowtab_evictions", label+`,reason="idle"`)
	tel.UnregisterGauge("dhl_flowtab_evictions", label+`,reason="pressure"`)
	tel.UnregisterGauge("dhl_flowtab_rehashes", label)
	tel.UnregisterGauge("dhl_flowtab_full_drops", label)
}
