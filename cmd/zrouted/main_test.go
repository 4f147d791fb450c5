package main

import (
	"strings"
	"testing"
	"time"

	"probe/internal/daemon"
	"probe/internal/router"
)

// TestValidateConfig pins the -check surface: the clash and
// plausibility rules that must reject a configuration before any
// socket is bound, with probed -check parity on the shared rules.
func TestValidateConfig(t *testing.T) {
	cases := []struct {
		name    string
		addr    string
		admin   string
		bT      time.Duration
		slowQ   time.Duration
		logEv   int
		wantErr string // substring; empty = valid
	}{
		{name: "defaults", addr: ":7341", admin: "", bT: 30 * time.Second, slowQ: -1},
		{name: "admin ok", addr: ":7341", admin: ":9341", bT: 30 * time.Second, slowQ: -1},
		{name: "admin clash wildcard", addr: ":7341", admin: ":7341", bT: 30 * time.Second, slowQ: -1,
			wantErr: "clashes"},
		{name: "admin clash same host", addr: "10.0.0.1:7341", admin: "10.0.0.1:7341", bT: 30 * time.Second, slowQ: -1,
			wantErr: "clashes"},
		{name: "admin distinct hosts same port", addr: "10.0.0.1:7341", admin: "10.0.0.2:7341", bT: 30 * time.Second, slowQ: -1},
		{name: "admin unparseable", addr: ":7341", admin: "no-port", bT: 30 * time.Second, slowQ: -1,
			wantErr: "bad -admin"},
		{name: "backend timeout zero", addr: ":7341", bT: 0, slowQ: -1,
			wantErr: "-backend-timeout"},
		{name: "backend timeout negative", addr: ":7341", bT: -time.Second, slowQ: -1,
			wantErr: "-backend-timeout"},
		{name: "backend timeout implausible", addr: ":7341", bT: 25 * time.Hour, slowQ: -1,
			wantErr: "not a plausible"},
		{name: "slow query implausible", addr: ":7341", bT: 30 * time.Second, slowQ: 25 * time.Hour,
			wantErr: "not a plausible"},
		{name: "slow query firehose", addr: ":7341", bT: 30 * time.Second, slowQ: 0},
		{name: "log requests negative", addr: ":7341", bT: 30 * time.Second, slowQ: -1, logEv: -1,
			wantErr: "-log-requests"},
		{name: "log requests sampling", addr: ":7341", bT: 30 * time.Second, slowQ: -1, logEv: 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateConfig(daemon.Flags{Addr: tc.addr, Admin: tc.admin, SlowQuery: tc.slowQ, LogEvery: tc.logEv}, tc.bT)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateConfig: unexpected error %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validateConfig = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestRouterConfigFlagMapping pins the flag-to-config conventions:
// -slow-query 0 means firehose (config negative), negative means
// disabled (config zero); -log-requests passes through (0 disables the
// Info log, N>0 samples); a Logger materializes exactly when some
// logging is on.
func TestRouterConfigFlagMapping(t *testing.T) {
	m := &router.Map{} // mapping only; never validated here
	base := func(slowQ time.Duration, logEv int) routerCfgView {
		rc := routerConfig(m, daemon.Flags{MaxInflight: 64, Batch: 512, Drain: 5 * time.Second, SlowQuery: slowQ, LogEvery: logEv}, 30*time.Second, time.Second)
		return routerCfgView{rc.SlowQuery, rc.LogEvery, rc.Logger != nil}
	}
	for _, tc := range []struct {
		name  string
		slowQ time.Duration
		logEv int
		want  routerCfgView
	}{
		{"all off", -1, 0, routerCfgView{0, 0, false}},
		{"firehose", 0, 0, routerCfgView{-1, 0, true}},
		{"threshold", 250 * time.Millisecond, 0, routerCfgView{250 * time.Millisecond, 0, true}},
		{"sampled only", -1, 50, routerCfgView{0, 50, true}},
		{"both", time.Second, 10, routerCfgView{time.Second, 10, true}},
	} {
		if got := base(tc.slowQ, tc.logEv); got != tc.want {
			t.Errorf("%s: routerConfig(slowQ=%v, logEv=%d) = %+v, want %+v",
				tc.name, tc.slowQ, tc.logEv, got, tc.want)
		}
	}
}

type routerCfgView struct {
	slowQuery time.Duration
	logEvery  int
	hasLogger bool
}
