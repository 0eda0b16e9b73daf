package soak

import (
	"encoding/json"
	"sort"
	"time"

	"p4update/internal/faults"
)

// ViolationCounts is the report's audit summary.
type ViolationCounts struct {
	Blackholes         uint64 `json:"blackholes"`
	Loops              uint64 `json:"loops"`
	OverCapacity       uint64 `json:"over_capacity"`
	VersionRegressions uint64 `json:"version_regressions"`
	Total              uint64 `json:"total"`
}

// LatencySLO is the update-completion quantile summary.
type LatencySLO struct {
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// ClassSLO aggregates one fault class's episodes: how many the storm
// fired, how many the fabric recovered from (a clean sweep after the
// episode ended), recovery-time statistics, and the §11 retrigger
// budget burned by updates the class's episodes overlapped.
type ClassSLO struct {
	Class          string  `json:"class"`
	Episodes       int     `json:"episodes"`
	Recovered      int     `json:"recovered"`
	RecoveryMeanMs float64 `json:"recovery_mean_ms"`
	RecoveryMaxMs  float64 `json:"recovery_max_ms"`
	UpdatesCharged uint64  `json:"updates_charged"`
	Retriggers     uint64  `json:"retriggers"`
	BudgetBurnPct  float64 `json:"budget_burn_pct"`
}

// EpisodeReport is one storm episode's line in the operator report.
type EpisodeReport struct {
	Class   string  `json:"class"`
	Node    int     `json:"node,omitempty"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
	// RecoveryMs is episode start → first post-episode clean sweep;
	// -1 when no clean sweep was observed before the trial ended.
	RecoveryMs     float64 `json:"recovery_ms"`
	UpdatesCharged uint64  `json:"updates_charged"`
	Retriggers     uint64  `json:"retriggers"`
}

// InjectionStats summarizes what the fault injector actually did.
type InjectionStats struct {
	Inspected      uint64 `json:"inspected"`
	Dropped        uint64 `json:"dropped"`
	Duplicated     uint64 `json:"duplicated"`
	Corrupted      uint64 `json:"corrupted"`
	Reordered      uint64 `json:"reordered"`
	PartitionDrops uint64 `json:"partition_drops"`
	Crashes        uint64 `json:"crashes"`
	Restores       uint64 `json:"restores"`
}

// Report is the per-trial JSON operator report: one (system × storm
// profile) cell of a soak grid. Every field derives from virtual-time
// state, so reports are byte-identical across runner worker counts.
type Report struct {
	System     string  `json:"system"`
	Profile    string  `json:"profile"`
	Seed       int64   `json:"seed"`
	VirtualSec float64 `json:"virtual_sec"`

	Arrivals   uint64 `json:"arrivals"`
	Departures uint64 `json:"departures"`
	Retired    uint64 `json:"retired"`
	PeakLive   int    `json:"peak_live"`
	EndLive    int    `json:"end_live"`

	Waves           uint64 `json:"waves"`
	WavesDeferred   uint64 `json:"waves_deferred"`
	RetireDeferrals uint64 `json:"retire_deferrals"`

	UpdatesTriggered uint64 `json:"updates_triggered"`
	UpdatesCompleted uint64 `json:"updates_completed"`
	// InFlight updates at trial end split three ways. Confirming: every
	// node committed the target version — the data plane is established
	// and consistent — but the §9.1 probe confirmation has not survived
	// the ambient loss yet (the controller keeps re-probing, budget-
	// free). CrashOrphaned: not fully applied and doomed by a switch
	// outage on the flow's path (the completion contract excludes
	// them). Stalled: the protocol's own failure to converge.
	InFlight      uint64 `json:"in_flight"`
	Confirming    uint64 `json:"confirming"`
	CrashOrphaned uint64 `json:"crash_orphaned"`
	Stalled       uint64 `json:"stalled"`

	AvailabilityPct float64 `json:"availability_pct"`
	AuditedSec      float64 `json:"audited_sec"`
	UnavailableSec  float64 `json:"unavailable_sec"`
	Sweeps          uint64  `json:"sweeps"`
	DirtySweeps     uint64  `json:"dirty_sweeps"`

	Violations ViolationCounts `json:"violations"`
	Latency    LatencySLO      `json:"latency"`

	MaxRetriggers int    `json:"max_retriggers"`
	Retriggers    uint64 `json:"retriggers"`
	// ProbeRetries counts budget-free confirmation re-probes of fully
	// applied updates (they are not part of the §11 burn).
	ProbeRetries uint64 `json:"probe_retries"`
	// BudgetBurnPct is total retriggers over the total §11 budget the
	// triggered updates were collectively allowed.
	BudgetBurnPct float64 `json:"budget_burn_pct"`

	Classes  []ClassSLO      `json:"classes"`
	Episodes []EpisodeReport `json:"episodes"`

	Injection *InjectionStats `json:"injection,omitempty"`
}

// Marshal renders the report as deterministic indented JSON.
func (r *Report) Marshal() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// SummarizeLatency returns the quantile summary of update-completion
// samples, zero when there are none. The p-quantile is the sample at
// floor(p·(n−1)) in sorted order; samples itself is left unsorted.
func SummarizeLatency(samples []time.Duration) LatencySLO {
	if len(samples) == 0 {
		return LatencySLO{}
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, s := range sorted {
		sum += s
	}
	q := func(p float64) float64 { return ms(sorted[int(p*float64(len(sorted)-1))]) }
	return LatencySLO{
		P50Ms:  q(0.50),
		P99Ms:  q(0.99),
		P999Ms: q(0.999),
		MaxMs:  ms(sorted[len(sorted)-1]),
		MeanMs: float64(sum) / float64(len(sorted)) / float64(time.Millisecond),
	}
}

// Finish closes the trial and builds its operator report. Call it after
// the engine has drained (or hit its horizon). In-flight updates are
// classified (confirming vs crash-orphaned vs stalled) and their
// retrigger burn is charged as if they ended now.
func (h *Harness) Finish(system, profile string, seed int64) *Report {
	now := h.sys.Eng.Now()
	var inflight, confirming, orphaned, stalled uint64
	for _, b := range h.flows {
		for k := range b {
			cf := &b[k]
			u := cf.u
			if !cf.live || u == nil {
				continue
			}
			inflight++
			sent := u.Sent
			if sent == 0 { // queued, never launched
				sent = now
			}
			h.slo.chargeUpdate(sent, now, u.Retriggers)
			h.c.ProbeRetries += uint64(u.ProbeRetries)
			switch {
			case u.AllApplied > 0:
				// The path is established; only the §9.1 confirmation is
				// outstanding against the ambient loss.
				confirming++
			case h.crashOrphaned(cf, sent, now):
				orphaned++
			default:
				stalled++
			}
		}
	}

	rep := &Report{
		System:     system,
		Profile:    profile,
		Seed:       seed,
		VirtualSec: now.Seconds(),

		Arrivals:   h.c.Arrivals,
		Departures: h.c.Departures,
		Retired:    h.c.Retired,
		PeakLive:   h.c.PeakLive,
		EndLive:    h.nlive,

		Waves:           h.c.Waves,
		WavesDeferred:   h.c.WavesDeferred,
		RetireDeferrals: h.c.RetireDeferrals,

		UpdatesTriggered: h.c.Triggered,
		UpdatesCompleted: h.c.Completed,
		InFlight:         inflight,
		Confirming:       confirming,
		CrashOrphaned:    orphaned,
		Stalled:          stalled,

		AvailabilityPct: h.slo.availabilityPct(),
		AuditedSec:      h.slo.audited.Seconds(),
		UnavailableSec:  h.slo.unavailable.Seconds(),
		Sweeps:          h.slo.sweeps,
		DirtySweeps:     h.slo.dirtySweeps,

		Violations: ViolationCounts{
			Blackholes:         h.slo.blackholes,
			Loops:              h.slo.loops,
			OverCapacity:       h.slo.overCap,
			VersionRegressions: h.slo.regress,
			Total:              h.slo.violationTotal(),
		},

		MaxRetriggers: h.opt.MaxRetriggers,
		Retriggers:    h.slo.totalRetrig,
		ProbeRetries:  h.c.ProbeRetries,

		Latency: SummarizeLatency(h.samples),
	}

	if h.opt.MaxRetriggers > 0 && h.c.Triggered > 0 {
		rep.BudgetBurnPct = 100 * float64(h.slo.totalRetrig) /
			(float64(h.c.Triggered) * float64(h.opt.MaxRetriggers))
	}

	rep.Classes, rep.Episodes = h.classReports()

	if h.sys.Inj != nil {
		st := h.sys.Inj.Stats
		rep.Injection = &InjectionStats{
			Inspected:      st.Inspected,
			Dropped:        st.Dropped,
			Duplicated:     st.Duplicated,
			Corrupted:      st.Corrupted,
			Reordered:      st.Reordered,
			PartitionDrops: st.PartitionDrops,
			Crashes:        st.Crashes,
			Restores:       st.Restores,
		}
	}
	return rep
}

// classReports folds the per-episode SLO state into the per-class and
// per-episode report sections, in class order then start order.
func (h *Harness) classReports() ([]ClassSLO, []EpisodeReport) {
	s := h.slo
	if len(s.episodes) == 0 {
		return nil, nil
	}
	classes := make([]ClassSLO, faults.NumEpisodeClasses)
	for c := range classes {
		classes[c].Class = faults.EpisodeClass(c).String()
	}
	eps := make([]EpisodeReport, len(s.episodes))
	for i, ep := range s.episodes {
		cl := &classes[ep.Class]
		cl.Episodes++
		cl.UpdatesCharged += s.epDone[i]
		cl.Retriggers += s.epRetrig[i]
		rec := float64(-1)
		if s.recovery[i] >= 0 {
			rec = ms(s.recovery[i])
			cl.Recovered++
			cl.RecoveryMeanMs += rec // sum for now; divided below
			if rec > cl.RecoveryMaxMs {
				cl.RecoveryMaxMs = rec
			}
		}
		node := 0
		if ep.Class == faults.EpisodeCrash {
			node = int(ep.Node)
		}
		eps[i] = EpisodeReport{
			Class:          ep.Class.String(),
			Node:           node,
			StartMs:        ms(ep.Start),
			EndMs:          ms(ep.End),
			RecoveryMs:     rec,
			UpdatesCharged: s.epDone[i],
			Retriggers:     s.epRetrig[i],
		}
	}
	out := classes[:0]
	for c := range classes {
		cl := classes[c]
		if cl.Episodes == 0 {
			continue
		}
		if cl.Recovered > 0 {
			cl.RecoveryMeanMs /= float64(cl.Recovered)
		}
		if h.opt.MaxRetriggers > 0 && cl.UpdatesCharged > 0 {
			cl.BudgetBurnPct = 100 * float64(cl.Retriggers) /
				(float64(cl.UpdatesCharged) * float64(h.opt.MaxRetriggers))
		}
		out = append(out, cl)
	}
	return out, eps
}
