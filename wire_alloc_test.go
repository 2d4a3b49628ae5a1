package dora

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"dora/internal/wire"
)

// TestWireFrameAllocs is the allocation regression guard for the wire
// hot path: header encode/decode plus writing a frame into a bufio
// buffer, both when the header fits the buffer's free space and when
// it must flush first. These run once per request and once per result
// or campaign cell on every streaming connection, so an allocation
// here multiplies by the serving throughput the binary transport
// exists to raise. As with the other alloc guards, the strict zero
// assertion is gated to non-race builds.
func TestWireFrameAllocs(t *testing.T) {
	cases := []struct {
		name            string
		bufSize, payLen int
	}{
		{"header fits", 4096, 256},
		// 16+40 bytes leave 8 free, fewer than a header: every frame
		// after the first flushes before staging its header.
		{"flush before header", 64, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hdr [wire.HeaderSize]byte
			in := wire.Frame{Len: 1024, Type: wire.TypeResult, Flags: wire.FlagCompressed | wire.SourceFlag("cache"), Aux: 3, ID: 42}
			var out wire.Frame
			payload := bytes.Repeat([]byte("x"), tc.payLen)
			// The write side always goes through a bufio.Writer in
			// production (collector and client).
			bw := bufio.NewWriterSize(io.Discard, tc.bufSize)

			allocs := testing.AllocsPerRun(100, func() {
				wire.PutHeader(hdr[:], &in)
				wire.ParseHeader(hdr[:], &out)
				if err := wire.WriteFrame(bw, &out, payload); err != nil {
					t.Fatalf("WriteFrame: %v", err)
				}
			})
			if out.Type != in.Type || out.ID != in.ID || wire.FlagSource(out.Flags) != "cache" {
				t.Fatalf("header round trip corrupted: %+v", out)
			}
			if raceEnabled {
				t.Logf("race build: wire frame allocs/op = %.1f (strict guard skipped)", allocs)
				return
			}
			if allocs != 0 {
				t.Fatalf("wire frame hot path allocates: %.1f allocs per frame (want 0)", allocs)
			}
		})
	}
}
