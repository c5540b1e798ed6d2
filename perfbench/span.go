package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
}

// recorder keeps spans in memory until the pass writes them out.  A nil
// recorder records nothing, so the untraced pass pays one nil check per
// call.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(r.epoch)})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// total sums the durations of the spans named name.
func (r *recorder) total(name string) time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var t time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			t += s.End - s.Start
		}
	}
	return t
}

// write saves the spans, with the host fingerprint, as JSON at path.
func (r *recorder) write(path string, h host) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.MarshalIndent(struct {
		Host  host   `json:"host"`
		Spans []span `json:"spans"`
	}{h, r.spans}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
