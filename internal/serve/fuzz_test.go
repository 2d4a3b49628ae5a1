package serve

import (
	"encoding/json"
	"slices"
	"testing"
)

// FuzzLoadRequestDecode holds the request decoder to its contract on
// arbitrary bytes: it never panics, every accepted request is fully
// normalized (canonical page/kernel names, explicit known governor,
// every bound enforced), and every rejection is a structured error
// with a sensible HTTP status. The committed corpus seeds the shapes
// the validator dispatches on: unknown fields, trailing content,
// freq/governor conflicts, out-of-range durations, and huge numbers.
func FuzzLoadRequestDecode(f *testing.F) {
	f.Add([]byte(`{"page":"MSN"}`))
	f.Add([]byte(`{"page":"msn","corunner":"BFS","governor":"ondemand","seed":42}`))
	f.Add([]byte(`{"page":"MSN","freq_mhz":1190}`))
	f.Add([]byte(`{"page":"MSN","freq_mhz":1190,"governor":"interactive"}`))
	f.Add([]byte(`{"page":"MSN","governor":"fixed"}`))
	f.Add([]byte(`{"page":"MSN","bogus":1}`))
	f.Add([]byte(`{"page":"MSN"}{"page":"MSN"}`))
	f.Add([]byte(`{"page":"MSN","deadline_ms":-1}`))
	f.Add([]byte(`{"page":"MSN","timeout_ms":99999999999}`))
	f.Add([]byte(`{"page":"MSN","ambient_c":1e308}`))
	f.Add([]byte(`{"page":"MSN","seed":9223372036854775807}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`[{"page":"MSN"}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, apiErr := DecodeLoadRequest(data)
		if apiErr != nil {
			if req != (LoadRequest{}) {
				t.Fatalf("error %v but non-zero request %+v", apiErr, req)
			}
			if apiErr.Message == "" || apiErr.Code == "" {
				t.Fatalf("unstructured error: %+v", apiErr)
			}
			switch apiErr.Status {
			case 400, 404:
			default:
				t.Fatalf("decode error with status %d: %v", apiErr.Status, apiErr)
			}
			return
		}
		// Accepted requests must be fully normalized and within bounds.
		if req.Page == "" {
			t.Fatal("accepted request without page")
		}
		if req.Governor == "" || !slices.Contains(governorNames, req.Governor) {
			t.Fatalf("accepted request with governor %q", req.Governor)
		}
		if req.Governor == "fixed" && req.FreqMHz <= 0 {
			t.Fatalf("fixed governor without frequency: %+v", req)
		}
		if req.FreqMHz > 0 && req.Governor != "fixed" {
			t.Fatalf("pinned frequency under governor %q", req.Governor)
		}
		for _, d := range []int64{req.DeadlineMs, req.DecisionIntervalMs, req.WarmupMs, req.MaxLoadMs} {
			if d < 0 || d > maxDurationMs {
				t.Fatalf("duration out of bounds in accepted request: %+v", req)
			}
		}
		if req.TimeoutMs < 0 || req.TimeoutMs > maxTimeoutMs {
			t.Fatalf("timeout out of bounds: %+v", req)
		}
		if req.AmbientC < -40 || req.AmbientC > 85 {
			t.Fatalf("ambient out of bounds: %+v", req)
		}
		// Normalization must be idempotent (re-decoding the normalized
		// request reproduces it bit for bit) — this is what makes equal
		// workloads deduplicable.
		again, err2 := json.Marshal(req)
		if err2 != nil {
			t.Fatalf("normalized request does not re-marshal: %v", err2)
		}
		req2, apiErr2 := DecodeLoadRequest(again)
		if apiErr2 != nil {
			t.Fatalf("normalized request rejected on re-decode: %v", apiErr2)
		}
		if req2 != req {
			t.Fatalf("normalization not idempotent:\n first %+v\nsecond %+v", req, req2)
		}
	})
}
