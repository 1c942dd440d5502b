package client

import (
	"net"
	"net/http"
	"time"
)

// Pool configures the per-host connection pool of a client's HTTP
// transport. The default client rides on http.DefaultClient, whose
// transport keeps only two idle connections per host — fine for a CLI, but
// a coordinator fanning a query out to every shard and doing it for many
// concurrent requests would open and close a TCP connection per call,
// exhausting ephemeral ports long before the shards saturate. A pooled
// transport keeps the coordinator→shard connections alive across calls.
//
// Zero fields take the documented defaults.
type Pool struct {
	// MaxIdleConnsPerHost is the number of idle keep-alive connections
	// retained per shard endpoint (default 16).
	MaxIdleConnsPerHost int
	// MaxConnsPerHost caps total connections per endpoint, bounding the
	// file descriptors one misbehaving shard can absorb (default 64;
	// negative means unlimited).
	MaxConnsPerHost int
}

// The timeouts of a pooled transport. A black-holed shard must fail the
// dial fast, not hold a fan-out slot for the OS connect timeout.
const (
	dialTimeout         = 2 * time.Second
	tlsHandshakeTimeout = 2 * time.Second
	idleConnTimeout     = 90 * time.Second // closes idle pooled connections
)

func (p Pool) withDefaults() Pool {
	if p.MaxIdleConnsPerHost <= 0 {
		p.MaxIdleConnsPerHost = 16
	}
	if p.MaxConnsPerHost == 0 {
		p.MaxConnsPerHost = 64
	} else if p.MaxConnsPerHost < 0 {
		p.MaxConnsPerHost = 0 // http.Transport: 0 = unlimited
	}
	return p
}

// Transport builds an *http.Transport with the pool's limits. One
// transport can back any number of Clients (the pool is per host, and a
// coordinator wants all its shard clients drawing from one pool).
func (p Pool) Transport() *http.Transport {
	p = p.withDefaults()
	return &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		DialContext:         (&net.Dialer{Timeout: dialTimeout, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConnsPerHost: p.MaxIdleConnsPerHost,
		// MaxIdleConns defaults to 100 in http.Transport and would silently
		// cap a wide fleet below the per-host budget; scale it out.
		MaxIdleConns:        0,
		MaxConnsPerHost:     p.MaxConnsPerHost,
		TLSHandshakeTimeout: tlsHandshakeTimeout,
		IdleConnTimeout:     idleConnTimeout,
		ForceAttemptHTTP2:   true,
	}
}
