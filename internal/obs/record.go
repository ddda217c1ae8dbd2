package obs

// EngineStats is the JSON-friendly form of the discrete-event engine's
// execution counters (sim.Stats), flattened to plain numbers so run logs
// stay readable without knowing the simulator's internal types.
type EngineStats struct {
	// Events is the number of events dispatched by the engine.
	Events uint64 `json:"events"`
	// Scheduled is the number of events ever scheduled (dispatched plus
	// still pending when the run ended).
	Scheduled uint64 `json:"scheduled"`
	// PeakPending is the high-water mark of the event queue depth.
	PeakPending int `json:"peak_pending"`
	// SimSeconds is how much virtual time the run advanced.
	SimSeconds float64 `json:"sim_s"`
	// WallSeconds is how much wall-clock time the engine spent dispatching.
	WallSeconds float64 `json:"wall_s"`
	// Speedup is SimSeconds/WallSeconds: how much faster than real time
	// the run executed.
	Speedup float64 `json:"speedup"`
	// EventsPerSecond is the engine's dispatch throughput.
	EventsPerSecond float64 `json:"events_per_s"`
}

// ProbeMeta summarises the instrumentation attached to a run: how the
// congestion-control sampler was configured, how many samples each probe
// layer captured, and where the exported artefacts landed (paths are
// relative to the run-log location, empty when the run was not exported).
type ProbeMeta struct {
	// IntervalMS is the sampling interval in milliseconds; 0 means the
	// sampler snapshotted on every ACK instead of on a timer.
	IntervalMS float64 `json:"interval_ms"`
	// PerAck reports whether ACK-driven sampling was active.
	PerAck bool `json:"per_ack,omitempty"`
	// CCSamples, QueueSamples and Events count captured datapoints.
	CCSamples    int    `json:"cc_samples"`
	QueueSamples int    `json:"queue_samples"`
	Events       uint64 `json:"events"`
	// EventsLost counts lifecycle events overwritten in the bounded ring.
	EventsLost uint64 `json:"events_lost,omitempty"`
	// Exported artefact filenames, empty when not written.
	CCCSV       string `json:"cc_csv,omitempty"`
	QueueCSV    string `json:"queue_csv,omitempty"`
	DropsCSV    string `json:"drops_csv,omitempty"`
	EventsJSONL string `json:"events_jsonl,omitempty"`
}

// ImpairMeta summarises the path impairments applied to a run: the static
// profile, and what the impairer actually did — drops by cause, duplicate
// and reorder counts, and link-flap accounting.
type ImpairMeta struct {
	// Spec is the compact impairment string ("loss2%+jit3ms", "none" for a
	// schedule-only run).
	Spec string `json:"spec"`
	// Schedule is the mid-run retuning program in ParseSchedule syntax,
	// empty when the run had none.
	Schedule string `json:"schedule,omitempty"`
	// Packets counts packets entering the impairer.
	Packets int `json:"packets"`
	// LossDrops and FlapDrops split impairer drops by cause.
	LossDrops int `json:"loss_drops"`
	FlapDrops int `json:"flap_drops,omitempty"`
	// Duplicates and Reordered count injected copies and overtakes.
	Duplicates int `json:"duplicates,omitempty"`
	Reordered  int `json:"reordered,omitempty"`
	// Flaps is the number of down transitions; DownSeconds the cumulative
	// time the link spent down.
	Flaps       int     `json:"flaps,omitempty"`
	DownSeconds float64 `json:"down_s,omitempty"`
}

// FlowsMeta summarises an N-flow population run: the configured population
// shape and the cross-flow fairness metrics over the fairness window.
type FlowsMeta struct {
	// Spec is the compact population string, e.g.
	// "flows=32(iperf:cubic)/on=30s/off=15s/a=1.5".
	Spec string `json:"spec"`
	// Flows is the configured competing-slot count; Streams counts game
	// streams including the primary.
	Flows   int `json:"flows"`
	Streams int `json:"streams"`
	// Active is the number of flows included in fairness accounting.
	Active int `json:"active"`
	// Jain is Jain's fairness index over per-flow window throughputs.
	Jain float64 `json:"jain"`
	// TputP10/P50/P90 are per-flow throughput quantiles in Mb/s.
	TputP10 float64 `json:"tput_p10_mbps"`
	TputP50 float64 `json:"tput_p50_mbps"`
	TputP90 float64 `json:"tput_p90_mbps"`
	// RTTInflP50/P90 are smoothed-RTT inflation quantiles over TCP slots
	// (SRTT / base RTT).
	RTTInflP50 float64 `json:"rtt_infl_p50,omitempty"`
	RTTInflP90 float64 `json:"rtt_infl_p90,omitempty"`
	// Starved counts flows below 5% of the equal share.
	Starved int `json:"starved"`
}

// Record is the structured log line one experiment run emits: where the run
// sits in the grid, how it was seeded, how the engine performed, and the
// headline metrics the paper's tables report. One Record per run makes a
// campaign grep-able ("every Luna/BBR cell"), tail-able while it executes,
// and diffable across code revisions.
type Record struct {
	// Cond is the compact condition string, e.g. "stadia/cubic/B25/q2.0x".
	Cond string `json:"cond"`
	// System, CCA, CapacityMbps, QueueMult and AQM are the condition's
	// individual coordinates, duplicated from Cond for structured queries.
	System       string  `json:"system"`
	CCA          string  `json:"cca"`
	CapacityMbps float64 `json:"capacity_mbps"`
	QueueMult    float64 `json:"queue_mult"`
	AQM          string  `json:"aqm"`
	// Seed is the run's deterministic seed; Iteration its index within the
	// grid cell.
	Seed      uint64 `json:"seed"`
	Iteration int    `json:"iter"`
	// Cached marks a run served from the content-addressed run cache
	// instead of being executed; its metrics (and the stored engine
	// counters) are byte-identical to the original execution's, but its
	// wall-clock cost was a file read.
	Cached bool `json:"cached,omitempty"`

	// Engine holds the run's execution counters.
	Engine EngineStats `json:"engine"`

	// Probe carries instrumentation metadata when the run was probed.
	Probe *ProbeMeta `json:"probe,omitempty"`

	// Impair carries impairment metadata when the run had a static
	// impairment profile or a retuning schedule.
	Impair *ImpairMeta `json:"impair,omitempty"`

	// Flows carries population metadata when the run had an N-flow
	// population configured.
	Flows *FlowsMeta `json:"flows,omitempty"`

	// Headline metrics over the paper's stabilised contention window.
	GameMbps float64 `json:"game_mbps"`
	TCPMbps  float64 `json:"tcp_mbps"`
	Fairness float64 `json:"fairness"`
	RTTMs    float64 `json:"rtt_ms"`
	FPS      float64 `json:"fps"`
	LossPct  float64 `json:"loss_pct"`

	// End-state counters for the whole trace.
	FramesSent      int64 `json:"frames_sent"`
	FramesDisplayed int64 `json:"frames_displayed"`
	FramesDropped   int64 `json:"frames_dropped"`
	NackRetx        int64 `json:"nack_retx"`
	TCPRetransmits  int   `json:"tcp_retx"`
}
