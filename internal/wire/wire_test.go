package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestHeaderRoundTrip(t *testing.T) {
	in := Frame{Len: 0xDEADBEEF, Type: TypeCampaignCell, Flags: FlagCompressed | SourceFlag("dedup"), Aux: 777, ID: 1<<63 + 42}
	var buf [HeaderSize]byte
	PutHeader(buf[:], &in)
	var out Frame
	ParseHeader(buf[:], &out)
	if out != in {
		t.Fatalf("header round trip: got %+v, want %+v", out, in)
	}
}

func TestWriteReadFrame(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello, stream")
	f := Frame{Type: TypeResult, Flags: SourceFlag("cache"), ID: 9}
	if err := WriteFrame(&buf, &f, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	// WriteFrame fills Len from the payload.
	if f.Len != uint32(len(payload)) {
		t.Fatalf("Len = %d, want %d", f.Len, len(payload))
	}
	got, gotPayload, err := ReadFrame(&buf, 1<<20)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if got != f || !bytes.Equal(gotPayload, payload) {
		t.Fatalf("frame round trip: got %+v %q, want %+v %q", got, gotPayload, f, payload)
	}
}

func TestWriteReadFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	f := Frame{Type: TypeGoodbye}
	if err := WriteFrame(&buf, &f, nil); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got, payload, err := ReadFrame(&buf, 16)
	if err != nil || got.Type != TypeGoodbye || payload != nil {
		t.Fatalf("empty frame round trip: %+v %v %v", got, payload, err)
	}
}

func TestReadFrameBudget(t *testing.T) {
	var buf bytes.Buffer
	f := Frame{Type: TypeLoad, ID: 1}
	if err := WriteFrame(&buf, &f, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(&buf, 99); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("over-budget frame error = %v, want ErrFrameTooBig", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	// Truncated header.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{1, 2, 3}), 64); err == nil {
		t.Fatal("truncated header accepted")
	}
	// Header promising more payload than follows.
	var buf bytes.Buffer
	f := Frame{Type: TypeLoad}
	if err := WriteFrame(&buf, &f, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-3]
	if _, _, err := ReadFrame(bytes.NewReader(short), 64); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload error = %v, want unexpected EOF", err)
	}
}

func TestSourceFlagRoundTrip(t *testing.T) {
	for _, src := range []string{"", "sim", "dedup", "cache", "mixed"} {
		if got := FlagSource(SourceFlag(src)); got != src {
			t.Fatalf("source %q round trips to %q", src, got)
		}
	}
	// Unknown provenance encodes as "no provenance", never junk bits.
	if got := SourceFlag("oracle"); got != 0 {
		t.Fatalf("unknown source encoded as %#x, want 0", got)
	}
	// Provenance bits coexist with the compression flag.
	flags := FlagCompressed | SourceFlag("mixed")
	if FlagSource(flags) != "mixed" || flags&FlagCompressed == 0 {
		t.Fatal("source bits collide with FlagCompressed")
	}
}

func TestLoadRequestRoundTrip(t *testing.T) {
	in := LoadRequest{
		Page: "Alipay", CoRunner: "backprop", Governor: "dora",
		FreqMHz: 1728, DeadlineMs: 16, DecisionIntervalMs: 20,
		WarmupMs: 300, MaxLoadMs: 10_000, Seed: -7,
		AmbientC: 25.5, TimeoutMs: 30_000, Fidelity: "sampled",
	}
	out, err := DecodeLoadRequest(AppendLoadRequest(nil, &in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out != in {
		t.Fatalf("load request round trip:\n got  %+v\n want %+v", out, in)
	}
	// NaN ambient survives bit-exactly (Float64bits transport).
	in.AmbientC = math.NaN()
	out, err = DecodeLoadRequest(AppendLoadRequest(nil, &in))
	if err != nil || !math.IsNaN(out.AmbientC) {
		t.Fatalf("NaN ambient round trip: %+v %v", out, err)
	}
}

func TestCampaignRequestRoundTrip(t *testing.T) {
	in := CampaignRequest{
		Pages:      []string{"Alipay", "Reddit"},
		CoRunners:  []string{"", "backprop"},
		Governors:  []string{"interactive"},
		DeadlineMs: 16, WarmupMs: 100, Seed: 3, TimeoutMs: 60_000,
		Fidelity: "exact",
	}
	out, err := DecodeCampaignRequest(AppendCampaignRequest(nil, &in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("campaign request round trip:\n got  %+v\n want %+v", out, in)
	}
	// Empty lists decode as nil, matching the JSON path's omitempty.
	empty := CampaignRequest{Pages: []string{"x"}}
	out, err = DecodeCampaignRequest(AppendCampaignRequest(nil, &empty))
	if err != nil || out.CoRunners != nil || out.Governors != nil {
		t.Fatalf("empty lists: %+v %v", out, err)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	in := Error{Status: 429, Code: "admission_full", Message: "queue full"}
	out, err := DecodeError(AppendError(nil, &in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out != in {
		t.Fatalf("error round trip: got %+v, want %+v", out, in)
	}
	if !strings.Contains(in.Error(), "admission_full") || !strings.Contains(in.Error(), "429") {
		t.Fatalf("Error() = %q, want code and status", in.Error())
	}
}

func TestCampaignSummaryRoundTrip(t *testing.T) {
	in := CampaignSummary{Cells: 24, Errored: 3}
	out, err := DecodeCampaignSummary(AppendCampaignSummary(nil, &in))
	if err != nil || out != in {
		t.Fatalf("summary round trip: %+v %v", out, err)
	}
}

// TestDecodeHostileInputs pins the strictness contract: every
// malformed payload fails with ErrCodec (or the version error) instead
// of decoding junk or allocating unbounded memory.
func TestDecodeHostileInputs(t *testing.T) {
	valid := AppendLoadRequest(nil, &LoadRequest{Page: "Alipay"})
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"wrong codec version", append([]byte{CodecVersion + 1}, valid[1:]...)},
		{"truncated mid-field", valid[:len(valid)/2]},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xFF)},
		{"string length over cap", append([]byte{CodecVersion}, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)},
		{"string length past end", append([]byte{CodecVersion}, 0x20, 'a', 'b')},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeLoadRequest(tc.payload); err == nil {
				t.Fatalf("hostile payload %x decoded", tc.payload)
			}
		})
	}

	t.Run("campaign list over cap", func(t *testing.T) {
		payload := []byte{CodecVersion}
		payload = append(payload, 0xFF, 0xFF, 0x7F) // pages count ~2M
		if _, err := DecodeCampaignRequest(payload); !errors.Is(err, ErrCodec) {
			t.Fatalf("oversized list error = %v, want ErrCodec", err)
		}
	})
	t.Run("error status out of range", func(t *testing.T) {
		bad := AppendError(nil, &Error{Status: 42, Code: "x", Message: "y"})
		if _, err := DecodeError(bad); !errors.Is(err, ErrCodec) {
			t.Fatalf("status 42 error = %v, want ErrCodec", err)
		}
	})
	t.Run("summary errored exceeds cells", func(t *testing.T) {
		bad := AppendCampaignSummary(nil, &CampaignSummary{Cells: 2, Errored: 5})
		if _, err := DecodeCampaignSummary(bad); !errors.Is(err, ErrCodec) {
			t.Fatalf("errored>cells error = %v, want ErrCodec", err)
		}
	})
}

func TestCompressRoundTrip(t *testing.T) {
	// Below the threshold: returned as-is.
	small := []byte("tiny")
	if _, ok := Compress(small); ok {
		t.Fatal("sub-threshold payload compressed")
	}
	// Compressible payload round trips.
	big := bytes.Repeat([]byte(`{"page":"Alipay","energy_mj":12.5}`), 64)
	packed, ok := Compress(big)
	if !ok {
		t.Fatal("compressible payload not compressed")
	}
	if len(packed) >= len(big) {
		t.Fatalf("compression grew payload: %d >= %d", len(packed), len(big))
	}
	back, err := Decompress(packed, int64(len(big)))
	if err != nil || !bytes.Equal(back, big) {
		t.Fatalf("decompress round trip failed: %v", err)
	}
	// The inflate budget stops decompression bombs.
	if _, err := Decompress(packed, 16); err == nil {
		t.Fatal("decompression past budget succeeded")
	}
}

// TestVersionConstantsAgree: the Upgrade token embeds the protocol
// version, so bumping one without the other is caught here.
func TestVersionConstantsAgree(t *testing.T) {
	if want := fmt.Sprintf("dora-stream/%d", ProtoVersion); UpgradeProtocol != want {
		t.Fatalf("UpgradeProtocol %q does not embed ProtoVersion %d", UpgradeProtocol, ProtoVersion)
	}
}
