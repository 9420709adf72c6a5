package main

import (
	"fmt"
	"math/rand"
)

// workload is one traffic mix driven against live daemons.
type workload struct {
	name   string
	rate   float64 // offered queries per second in the measured window
	warmup int     // queries sent during set-up to fill the caches
	// resolverArgs and authArgs are the daemon flags beyond addresses and
	// -metrics, which every run passes.
	resolverArgs []string
	authArgs     []string
	pipeline     string // middleware spec written to pipeline.toml; "" = default pipeline
	qlog         bool   // resolverd writes a query log into the run directory
	// drawer returns the name source: called with warm=true for set-up
	// queries and warm=false for measured ones.
	drawer func(r *rand.Rand) func(warm bool) (string, uint8)
}

// zones are served by the one authserver of every live workload. The
// resolver iterates from the root at 127.0.0.1, and that same server holds
// the most specific zone for every name, so a miss costs one upstream
// exchange.
var zones = map[string]string{
	".": `$ORIGIN .
@                  86400 IN SOA a.root-servers.net. nstld.example. 1 1800 900 604800 86400
@                  518400 IN NS a.root-servers.net.
a.root-servers.net. 518400 IN A 127.0.0.1
test.              172800 IN NS ns1.test.
ns1.test.          172800 IN A 127.0.0.1
`,
	"example.test": `$ORIGIN example.test.
@     86400 IN SOA ns1 admin 1 7200 3600 1209600 300
@     86400 IN NS ns1
ns1   86400 IN A 127.0.0.1
*     86400 IN A 192.0.2.1
`,
	"short.test": `$ORIGIN short.test.
@     86400 IN SOA ns1 admin 1 7200 3600 1209600 300
@     86400 IN NS ns1
ns1   86400 IN A 127.0.0.1
*     5     IN A 192.0.2.2
`,
	"nx.test": `$ORIGIN nx.test.
@     86400 IN SOA ns1 admin 1 7200 3600 1209600 300
@     86400 IN NS ns1
ns1   86400 IN A 127.0.0.1
`,
}

// hardenedPipeline is the mixed workload's middleware graph. The rate
// limit sits far above the offered rate: its bucket is charged on every
// query but never refuses one.
const hardenedPipeline = `entry = "shield"

[stage.shield]
type   = "blocklist"
block  = "ads.example.test"
action = "nxdomain"
next   = "guard"

[stage.guard]
type   = "ratelimit"
qps    = 100000
burst  = 100000
action = "refuse"
next   = "once"

[stage.once]
type = "dedup"
next = "resolve"

[stage.resolve]
type = "resolver"
`

const (
	hotNames   = 1000
	mixedNames = 20000
)

var workloads = map[string]*workload{
	// hot: nearly every query hits the cache, so the per-packet path
	// (socket loop, codec, default pipeline, cache read) is all that runs.
	// It is the bypass case for every miss-path change.
	"hot": {
		name:   "hot",
		rate:   3000,
		warmup: hotNames,
		drawer: func(r *rand.Rand) func(bool) (string, uint8) {
			z := newZipf(hotNames, 1.0)
			next := 0
			return func(warm bool) (string, uint8) {
				k := next
				if warm {
					next++ // every name once, so the cache is full before measuring
				} else {
					k = z.draw(r)
				}
				return fmt.Sprintf("h%d.example.test", k), classLong
			}
		},
	},
	// unique: every query is a new name, so each one goes upstream and
	// ends in a cache Put that evicts under the byte bound.
	"unique": {
		name:         "unique",
		rate:         1000,
		warmup:       2500,
		resolverArgs: []string{"-cache-bytes", "262144", "-eviction", "lru"},
		authArgs:     []string{"-rrl", "rps=5000,burst=5000,slip=2"},
		drawer: func(r *rand.Rand) func(bool) (string, uint8) {
			return func(bool) (string, uint8) {
				return randLabel(r) + ".example.test", classLong
			}
		},
	},
	// mixed: paper-shaped traffic. Zipf popularity over two TTL classes
	// (the 5 s class expires and is refetched inside the run), random
	// NXDOMAIN subdomains, and blocklisted names, through a resolver farm
	// with the hardened pipeline and a binary query log.
	"mixed": {
		name:   "mixed",
		rate:   1000,
		warmup: 4000,
		resolverArgs: []string{
			"-frontends", "4", "-cache-topology", "shared", "-placement", "hash",
			"-qlog-format", "binary",
		},
		pipeline: hardenedPipeline,
		qlog:     true,
		drawer: func(r *rand.Rand) func(bool) (string, uint8) {
			z := newZipf(mixedNames, 0.9)
			return func(bool) (string, uint8) {
				switch p := r.Float64(); {
				case p < 0.10:
					return randLabel(r) + ".nx.test", classNX
				case p < 0.15:
					return randLabel(r) + ".ads.example.test", classBlock
				}
				k := z.draw(r)
				if k%2 == 0 {
					return fmt.Sprintf("m%d.example.test", k), classLong
				}
				return fmt.Sprintf("m%d.short.test", k), classShort
			}
		},
	},
}
