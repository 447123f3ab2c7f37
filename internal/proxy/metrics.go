package proxy

import (
	"strings"

	"msite/internal/obs"
)

// handlerKind classifies a proxy-relative path for metrics, traces, and
// logs. The set is closed: a path that names no handler is notFound.
type handlerKind uint8

const (
	kindEntry handlerKind = iota
	kindSubpage
	kindAsset
	kindAJAX
	kindAuth
	kindLogin
	kindLogout
	kindStats
	kindNotFound
	numKinds
)

// kindNames spell each kind as its handler label and trace name.
var kindNames = [numKinds]string{
	"entry", "subpage", "asset", "ajax", "auth", "login", "logout", "stats", "notfound",
}

func (k handlerKind) String() string { return kindNames[k] }

// kindOf classifies a proxy-relative path.
func kindOf(path string) handlerKind {
	switch {
	case path == "/":
		return kindEntry
	case strings.HasPrefix(path, "/subpage/"):
		return kindSubpage
	case strings.HasPrefix(path, "/asset/"):
		return kindAsset
	case path == "/ajax":
		return kindAJAX
	case path == "/auth":
		return kindAuth
	case path == "/login":
		return kindLogin
	case path == "/logout":
		return kindLogout
	case path == "/stats":
		return kindStats
	default:
		return kindNotFound
	}
}

// metrics are the proxy's instruments whose labels are known when it is
// built, resolved once in New so that serving a request looks up no
// series by name. Series whose labels are known only at call time — a
// degraded stage, a repair rule — still go through the
// registry. Resolving registers: every series here exists, at zero, from
// New on.
type metrics struct {
	kinds [numKinds]kindMetrics
	// atfMinimal times the MAML-style entry; a graphical entry's time is
	// its msite_http_request_seconds{handler="entry"}.
	atfMinimal *obs.Histogram

	adaptations, snapshotRenders, snapshotHits *obs.Counter
	bundleReuses, staleServed, coalesced       *obs.Counter
}

// kindMetrics are one handler kind's request instruments.
type kindMetrics struct {
	requests, errors *obs.Counter
	latency          *obs.Histogram
}

func newMetrics(reg *obs.Registry, site string) *metrics {
	m := &metrics{
		atfMinimal:      reg.Histogram("msite_proxy_atf_seconds", "site", site, "mode", "minimal"),
		adaptations:     reg.Counter("msite_proxy_adaptations_total", "site", site),
		snapshotRenders: reg.Counter("msite_proxy_snapshot_renders_total", "site", site),
		snapshotHits:    reg.Counter("msite_proxy_snapshot_hits_total", "site", site),
		bundleReuses:    reg.Counter("msite_proxy_bundle_reuses_total", "site", site),
		staleServed:     reg.Counter("msite_proxy_stale_served_total", "site", site),
		coalesced:       reg.Counter("msite_admission_coalesced_total", "site", site),
	}
	for k, name := range kindNames {
		m.kinds[k] = kindMetrics{
			requests: reg.Counter("msite_proxy_requests_total", "handler", name, "site", site),
			errors:   reg.Counter("msite_proxy_errors_total", "handler", name, "site", site),
			latency:  reg.Histogram("msite_http_request_seconds", "handler", name),
		}
	}
	return m
}
