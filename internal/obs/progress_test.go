package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestNilProgressNoOps(t *testing.T) {
	var p *Progress
	p.Point(false, 0.5)
	p.Point(true, 0.5)
	p.Finish()
}

func TestProgressRendersCountsFailuresAndHitRate(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "fig7", 4)
	p.renderEvery = 0 // render every update in tests
	p.Point(false, 0.25)
	p.Point(true, 0.50)
	p.Point(false, 0.75)
	p.Point(false, 0.875)
	p.Finish()

	out := buf.String()
	final := out[strings.LastIndex(out, "\r")+1:]
	for _, want := range []string{"fig7", "4/4 points", "(100%)", "1 failed", "cache hit 87.5%"} {
		if !strings.Contains(final, want) {
			t.Errorf("final progress line missing %q: %q", want, final)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("Finish did not terminate the line")
	}
}

func TestProgressETAAppearsOnlyMidSweep(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "sweep", 3)
	p.renderEvery = 0
	p.Point(false, 0)
	mid := buf.String()
	if !strings.Contains(mid, "ETA") {
		t.Errorf("mid-sweep line has no ETA: %q", mid)
	}
	p.Point(false, 0)
	p.Point(false, 0)
	buf.Reset()
	p.Finish()
	if strings.Contains(buf.String(), "ETA") {
		t.Errorf("completed sweep still shows an ETA: %q", buf.String())
	}
}

func TestProgressConcurrentPoints(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "par", 400)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				p.Point(false, 0.5)
			}
		}()
	}
	wg.Wait()
	p.Finish()
	if !strings.Contains(buf.String(), "400/400") {
		t.Errorf("concurrent updates lost points: %q", buf.String())
	}
}
