package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"eilid/internal/core"
	"eilid/internal/fleet"
)

// syncBuf is a goroutine-safe buffer: run() writes from the daemon
// goroutine while the test polls for the readiness line.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL, the signal channel that shuts it down, and the exit-code channel.
func startDaemon(t *testing.T, extra ...string) (url string, sig chan os.Signal, exit chan int) {
	t.Helper()
	var stdout syncBuf
	sig = make(chan os.Signal, 2)
	exit = make(chan int, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-q"}, extra...)
	go func() { exit <- run(args, &stdout, io.Discard, sig) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		out := stdout.String()
		if i := strings.Index(out, "listening on "); i >= 0 {
			if j := strings.IndexByte(out[i:], '\n'); j >= 0 {
				return "http://" + strings.TrimSpace(out[i+len("listening on "):i+j]), sig, exit
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never printed its readiness line; stdout: %q", out)
		}
		time.Sleep(time.Millisecond)
	}
}

func daemonSpec() fleet.BatchSpec {
	return fleet.BatchSpec{
		Matrix: fleet.MatrixSpec{
			Apps:      []string{"LightSensor"},
			Scenarios: []string{"stack-smash"},
			Generated: fleet.GeneratedSpec{Seed: 7, Count: 4},
		},
		Exec: fleet.ExecSpec{Workers: 4},
	}
}

// cliJournal is the journal `eilid-fleet -spec … -json out` would
// write for the spec, built through the same fleet API the CLI uses.
func cliJournal(t *testing.T, spec fleet.BatchSpec) []byte {
	t.Helper()
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := fleet.NewRunner(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, _, err := r.WriteJournal(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFleetdSmoke: boot the daemon on an ephemeral port, POST a spec,
// stream its journal, pin it byte-identical to the CLI journal, then
// shut down with one signal and expect a clean exit.
func TestFleetdSmoke(t *testing.T) {
	url, sig, exit := startDaemon(t)

	body, err := json.Marshal(daemonSpec())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("POST /batches: %s: %s", resp.Status, raw)
	}
	var st struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(url + "/batches/" + st.ID + "/journal")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := cliJournal(t, daemonSpec()); !bytes.Equal(want, got) {
		t.Fatalf("daemon journal differs from CLI journal (%d vs %d bytes)", len(got), len(want))
	}

	sig <- os.Interrupt
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("daemon exit code %d, want 0", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after SIGINT")
	}
}

// TestFleetdDrainExit: a signal with an empty queue drains immediately
// and exits 0; healthz answers before the signal.
func TestFleetdDrainExit(t *testing.T) {
	url, sig, exit := startDaemon(t, "-max-queue", "4")
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %s", resp.Status)
	}
	sig <- os.Interrupt
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d, want 0", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after SIGINT")
	}
}

// TestFleetdUsageErrors: bad flags and stray positionals exit 2 without
// binding a socket.
func TestFleetdUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nonsense"},
		{"stray-positional"},
		{"-max-queue", "-3"},
	} {
		var stderr bytes.Buffer
		if code := run(args, io.Discard, &stderr, make(chan os.Signal)); code != 2 {
			t.Errorf("run(%v) = %d, want 2; stderr: %s", args, code, stderr.String())
		}
	}
}

// TestFleetdBoundsConnections: the daemon's server closes a connection
// that never sends a request, and a keep-alive connection left idle
// after one. Each case shortens its bound on the daemon's own server
// construction instead of waiting out the production timeout.
func TestFleetdBoundsConnections(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout || hs.WriteTimeout != 0 {
		t.Fatalf("server bounds: header %v, idle %v, write %v", hs.ReadHeaderTimeout, hs.IdleTimeout, hs.WriteTimeout)
	}
	for _, tc := range []struct {
		name    string
		shorten func(*http.Server)
		send    string
	}{
		{"silent", func(s *http.Server) { s.ReadHeaderTimeout = 50 * time.Millisecond }, ""},
		{"idle", func(s *http.Server) { s.IdleTimeout = 50 * time.Millisecond }, "GET /healthz HTTP/1.1\r\nHost: fleetd\r\n\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hs := newHTTPServer(http.NotFoundHandler())
			tc.shorten(hs)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go hs.Serve(ln)
			defer hs.Close()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := io.WriteString(conn, tc.send); err != nil {
				t.Fatal(err)
			}
			// ReadAll returns nil at EOF, when the server hangs up; a
			// connection still open runs into the read deadline.
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			out, err := io.ReadAll(conn)
			if err != nil {
				t.Fatalf("connection still open: %v", err)
			}
			if tc.send != "" && !strings.HasPrefix(string(out), "HTTP/1.1 404") {
				t.Fatalf("response %q", out)
			}
		})
	}
}
