package service

import "repro/internal/obsv"

const (
	mnGood       = "jobs_done_total"
	mnQueue      = "queue_len"
	mnBadCase    = "Bad-Name"
	mnNoTotal    = "jobs_done"
	mnGaugeTotal = "queue_len_total"
	mnPrefix     = "phase_"
	mnSuffix     = "_ns"
	mnRetired    = "eclat_classes_mined_total"
)

var (
	_ = obsv.Default.Counter(mnGood, "constant snake_case counter: fine")
	_ = obsv.Default.Gauge(mnQueue, "constant snake_case gauge: fine")
	_ = obsv.Default.Counter("inline_total", "bad") // want `obsv\.Counter name must be a package-level constant, not an inline string literal`
	_ = obsv.Default.Counter(mnBadCase, "bad")      // want `metric name "Bad-Name" is not snake_case`
	_ = obsv.Default.Counter(mnNoTotal, "bad")      // want `counter name "jobs_done" must end in _total`
	_ = obsv.Default.Gauge(mnGaugeTotal, "bad")     // want `gauge name "queue_len_total" must not end in _total`
	_ = obsv.Default.Counter(mnUndefined, "bad")    // want `obsv\.Counter name must resolve to a package-level string constant`
	_ = obsv.Default.Counter(mnRetired, "bad")      // want `metric name "eclat_classes_mined_total" is retired; count under eclat_classes_total`

	_ = obsv.Default.Histogram(mnPrefix+obsv.SanitizeName("x")+mnSuffix, "constant-prefixed dynamic name: fine", nil)
	_ = obsv.Default.Histogram(mnPrefix+"lit"+mnSuffix, "bad", nil)         // want `dynamic obsv\.Histogram name segment must be a package-level constant, not an inline string literal`
	_ = obsv.Default.Histogram(obsv.SanitizeName("x")+mnSuffix, "bad", nil) // want `dynamic obsv\.Histogram name must start with a constant prefix segment`
)
