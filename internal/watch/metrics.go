package watch

import "legalchain/internal/metrics"

// The watchtower's metric surface: domain-level health, not transport
// plumbing. Where the rest of the registry answers "is the machine
// fine?", these answer "are the contracts fine?" — how many agreements
// sit in each lifecycle state, how many duties are past due, how late
// tenants pay, and whether any declared alert rule is firing.
//
// Registered in metrics.Default like every tier, so one scrape carries
// the full story. Gauges are recomputed after each fold pass by the
// (single) live tower; counters are cumulative across the process and
// include the start-up refold: a restarted tower counts again every
// block, event, alert and payment of the chain it refolds.
var (
	mContracts = metrics.Default.GaugeVec("legalchain_watch_contracts",
		"Tracked contracts by lifecycle state.", "state")
	mOverdue = metrics.Default.Gauge("legalchain_watch_obligations_overdue",
		"Derived obligations past their due block.")
	mPaymentLag = metrics.Default.Histogram("legalchain_watch_payment_lag_seconds",
		"Seconds between a rent obligation's due block and its payment (0 = on time).",
		[]float64{0, 1, 2, 5, 10, 30, 60, 300, 900, 3600, 86400})
	mEvents = metrics.Default.CounterVec("legalchain_watch_events_total",
		"Lifecycle events folded, by contract template and event type.", "template", "event")
	mAlertsFiring = metrics.Default.Gauge("legalchain_watch_alerts_firing",
		"Alert rules currently in the firing state.")
	mAlertsTotal = metrics.Default.Counter("legalchain_watch_alerts_fired_total",
		"Alert rule firings (transitions into the firing state).")
	mFoldLag = metrics.Default.Gauge("legalchain_watch_fold_lag_blocks",
		"Blocks sealed but not yet folded by the watchtower.")
	mFoldDelay = metrics.Default.Histogram("legalchain_watch_fold_delay_seconds",
		"Seconds from a head view's publication to the start of the fold batch that takes it up.",
		[]float64{0.0005, 0.001, 0.002, 0.003, 0.004, 0.005, 0.0075, 0.01, 0.015, 0.02, 0.03, 0.05, 0.075, 0.1, 0.25, 0.5, 1})
	mBlocksFolded = metrics.Default.Counter("legalchain_watch_blocks_folded_total",
		"Blocks folded into the watchtower state machines.")
)
