package telemetry

import (
	"sync"
	"testing"
	"time"
)

func sampleAt(ms int) Sample {
	return Sample{Now: time.Duration(ms) * time.Millisecond, FreqMHz: 300 + ms}
}

func TestSinkDecimation(t *testing.T) {
	s := NewSink(SinkOptions{Decimate: 10})
	var got []Sample
	s.Subscribe(func(x Sample) { got = append(got, x) })
	for i := 0; i < 100; i++ {
		s.Publish(sampleAt(i))
	}
	if len(got) != 10 {
		t.Fatalf("subscriber saw %d samples, want 10", len(got))
	}
	for i, x := range got {
		if x.FreqMHz != 300+10*i {
			t.Fatalf("decimated stream sample %d = %+v", i, x)
		}
	}
}

func TestSinkUnsubscribe(t *testing.T) {
	s := NewSink(SinkOptions{})
	n := 0
	unsub := s.Subscribe(func(Sample) { n++ })
	s.Publish(sampleAt(0))
	unsub()
	s.Publish(sampleAt(1))
	if n != 1 {
		t.Fatalf("subscriber called %d times, want 1", n)
	}
}

// TestSinkConcurrent publishes while subscribers churn; run under
// -race this validates the sink's locking discipline.
func TestSinkConcurrent(t *testing.T) {
	s := NewSink(SinkOptions{})
	var wg sync.WaitGroup
	stop := make(chan struct{})

	var mu sync.Mutex
	seen := 0
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				unsub := s.Subscribe(func(Sample) {
					mu.Lock()
					seen++
					mu.Unlock()
				})
				unsub()
			}
		}()
	}
	var pubs sync.WaitGroup
	for i := 0; i < 2; i++ {
		pubs.Add(1)
		go func(base int) {
			defer pubs.Done()
			for j := 0; j < 5000; j++ {
				s.Publish(sampleAt(base + j))
			}
		}(i * 10000)
	}
	// Let publishers finish, then stop the churners.
	pubs.Wait()
	close(stop)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	_ = seen // any value is fine; the point is race-freedom
}

func TestNilSinkIsNoOp(t *testing.T) {
	var s *Sink
	s.Publish(sampleAt(0))
	s.Subscribe(func(Sample) { t.Fatal("nil sink delivered a sample") })()
	s.Publish(sampleAt(1))
}
