// Command nxtop is a polling terminal dashboard over the observability
// server's /snapshot endpoint: per-device utilization, credits, queue
// depth, windowed throughput and request rates, SLO verdicts and the
// recent event tail, refreshed in place like top(1).
//
// Point it at anything exporting the endpoints — `nxbench -serve :8090`
// or an application embedding Node.ServeObs:
//
//	nxtop -addr 127.0.0.1:8090
//	nxtop -addr 127.0.0.1:8090 -interval 500ms
//	nxtop -n 3 -plain            # three frames, no screen clearing (for logs/CI)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"nxzip/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8090", "observability server address")
		interval = flag.Duration("interval", time.Second, "poll interval")
		frames   = flag.Int("n", 0, "number of frames to draw (0 = until interrupted)")
		plain    = flag.Bool("plain", false, "append frames instead of redrawing in place (no ANSI escapes)")
	)
	flag.Parse()
	if err := run(*addr, *interval, *frames, *plain); err != nil {
		fmt.Fprintf(os.Stderr, "nxtop: %v\n", err)
		os.Exit(1)
	}
}

// fetch polls one StatusDoc from the server.
func fetch(client *http.Client, url string) (*obs.StatusDoc, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	var doc obs.StatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return &doc, nil
}

func run(addr string, interval time.Duration, frames int, plain bool) error {
	if interval <= 0 {
		interval = time.Second
	}
	url := "http://" + addr + "/snapshot"
	client := &http.Client{Timeout: 5 * time.Second}
	var prev *obs.StatusDoc
	for i := 0; frames == 0 || i < frames; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		cur, err := fetch(client, url)
		if err != nil {
			// The first poll failing means the target isn't there; mid-run
			// failures (server restarting, transient refusals) just skip a
			// frame and keep polling.
			if prev == nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "nxtop: %v (retrying)\n", err)
			continue
		}
		if !plain {
			fmt.Print("\x1b[H\x1b[2J") // cursor home + clear screen
		}
		obs.RenderText(os.Stdout, prev, cur)
		if plain {
			fmt.Println()
		}
		prev = cur
	}
	return nil
}
