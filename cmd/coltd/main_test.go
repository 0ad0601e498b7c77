package main

import (
	"net"
	"strings"
	"testing"
	"time"
)

func TestValidateRejectsBadSizing(t *testing.T) {
	cases := []struct {
		name                                string
		queueDepth, workers, parall, retain int
		drain                               time.Duration
		breaker                             int
		probe                               time.Duration
		wantFlag                            string
	}{
		{"zero queue", 0, 1, 0, 1024, time.Minute, 3, time.Second, "-queue"},
		{"negative queue", -3, 1, 0, 1024, time.Minute, 3, time.Second, "-queue"},
		{"zero workers", 8, 0, 0, 1024, time.Minute, 3, time.Second, "-workers"},
		{"negative parallel", 8, 1, -1, 1024, time.Minute, 3, time.Second, "-parallel"},
		{"zero retain", 8, 1, 0, 0, time.Minute, 3, time.Second, "-retain"},
		{"zero drain timeout", 8, 1, 0, 1024, 0, 3, time.Second, "-drain-timeout"},
		{"negative drain timeout", 8, 1, 0, 1024, -time.Second, 3, time.Second, "-drain-timeout"},
		{"zero breaker", 8, 1, 0, 1024, time.Minute, 0, time.Second, "-breaker"},
		{"breaker below -1", 8, 1, 0, 1024, time.Minute, -2, time.Second, "-breaker"},
		{"zero probe interval", 8, 1, 0, 1024, time.Minute, 3, 0, "-probe-interval"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validate(tc.queueDepth, tc.workers, tc.parall, tc.retain, tc.drain, tc.breaker, tc.probe)
			if err == nil {
				t.Fatal("validate succeeded")
			}
			if !strings.Contains(err.Error(), tc.wantFlag) {
				t.Fatalf("error %q does not mention %s", err, tc.wantFlag)
			}
		})
	}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	if err := validate(16, 1, 0, 1024, 10*time.Minute, 3, 2*time.Second); err != nil {
		t.Fatalf("validate rejected the default configuration: %v", err)
	}
	// -breaker -1 is the documented "never trip" escape hatch.
	if err := validate(16, 1, 0, 1024, 10*time.Minute, -1, 2*time.Second); err != nil {
		t.Fatalf("validate rejected -breaker -1: %v", err)
	}
}

func TestBuildLogger(t *testing.T) {
	for _, level := range []string{"debug", "info", "warn", "error"} {
		l, err := buildLogger(level)
		if err != nil || l == nil {
			t.Fatalf("buildLogger(%q) = (%v, %v), want a logger", level, l, err)
		}
	}
	if l, err := buildLogger("off"); err != nil || l != nil {
		t.Fatalf("buildLogger(off) = (%v, %v), want (nil, nil)", l, err)
	}
	if _, err := buildLogger("verbose"); err == nil || !strings.Contains(err.Error(), "-log-level") {
		t.Fatalf("buildLogger(verbose) error = %v, want a -log-level flag error", err)
	}
}

func TestClusterConfig(t *testing.T) {
	hb := 500 * time.Millisecond
	if cfg, err := clusterConfig("", "", hb); err != nil || cfg != nil {
		t.Fatalf("unclustered = (%v, %v), want (nil, nil)", cfg, err)
	}
	// A bare -node-id is a legal single-node cluster.
	cfg, err := clusterConfig("n1", "", hb)
	if err != nil || cfg == nil || cfg.NodeID != "n1" || len(cfg.Peers) != 0 {
		t.Fatalf("bare node-id = (%+v, %v), want single-node config", cfg, err)
	}
	cfg, err = clusterConfig("n1", "n2=http://10.0.0.2:8077,n3=http://10.0.0.3:8077", hb)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.HeartbeatInterval != hb {
		t.Fatalf("config = %+v", cfg)
	}
	if cfg.Peers["n2"] != "http://10.0.0.2:8077" || cfg.Peers["n3"] != "http://10.0.0.3:8077" {
		t.Fatalf("peers = %v", cfg.Peers)
	}

	bad := []struct {
		nodeID, peers string
		hb            time.Duration
		wantFlag      string
	}{
		{"", "n2=http://x:1", hb, "-node-id"},
		{"n.1", "", hb, "-node-id"},
		{"n 1", "", hb, "-node-id"},
		{"n1", "", 0, "-heartbeat-interval"},
		{"n1", "garbage", hb, "-peers"},
		{"n1", "n2=", hb, "-peers"},
		{"n1", "=http://x:1", hb, "-peers"},
		{"n1", "n1=http://x:1", hb, "-peers"},
		{"n1", "n2=ftp://x:1", hb, "-peers"},
		{"n1", "n2=http://x:1,n2=http://y:1", hb, "-peers"},
		{"n1", "n.2=http://x:1", hb, "-peers"},
		{"n1", " , ", hb, "-peers"},
	}
	for _, tc := range bad {
		_, err := clusterConfig(tc.nodeID, tc.peers, tc.hb)
		if err == nil {
			t.Fatalf("clusterConfig(%q, %q, %v) succeeded", tc.nodeID, tc.peers, tc.hb)
		}
		if !strings.Contains(err.Error(), tc.wantFlag) {
			t.Fatalf("error %q does not mention %s", err, tc.wantFlag)
		}
	}
}

// TestListenURLRewritesUnspecifiedHost is the -addr :0 satellite: the
// startup line must carry a dialable URL with the kernel-chosen port,
// not "[::]:0"'s literal unspecified host.
func TestListenURLRewritesUnspecifiedHost(t *testing.T) {
	ln, err := net.Listen("tcp", ":0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := listenURL(ln.Addr())
	_, port, _ := net.SplitHostPort(ln.Addr().String())
	if port == "0" || port == "" {
		t.Fatalf("listener reported port %q", port)
	}
	want := "http://127.0.0.1:" + port
	if got != want {
		t.Fatalf("listenURL(%v) = %q, want %q", ln.Addr(), got, want)
	}
	// A concrete host passes through untouched.
	if got := listenURL(&net.TCPAddr{IP: net.IPv4(192, 0, 2, 7), Port: 8077}); got != "http://192.0.2.7:8077" {
		t.Fatalf("concrete host rewritten: %q", got)
	}
}
