package middleware

import "testing"

// FuzzCheck drives the spec parser and graph builder with arbitrary text:
// Check must return an error or nil, never panic.
func FuzzCheck(f *testing.F) {
	for _, s := range []string{
		"",
		"[stage.only]\ntype = \"resolver\"\n",
		limiter("qps = nan"),
		limiter("burst = nan"),
		limiter("prefix4 = 24.9"),
		limiter("qps = 5\nburst = 10\nprefix6 = 48\naction = \"drop\""),
		"entry=\"a\"\n[stage.a]\ntype=\"dedup\"\nnext=\"b\"\n[stage.b]\ntype=\"dedup\"\nnext=\"a\"",
		"entry = \"m\"\n[stage.m]\ntype = \"cache\"\nnext = \"r\"\n[stage.r]\ntype = \"resolver\"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		_ = Check(spec)
	})
}
