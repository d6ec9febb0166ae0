package core

import "testing"

// The deprecated Method names still resolve exactly as before: every
// method maps to a registered codec, and ParseMethod inverts String.

func TestCodecForMethodAllResolvable(t *testing.T) {
	// Every training method maps to its own registered codec.
	want := map[Method]string{
		Vanilla: CodecFP32, AdaQP: CodecAdaptive, AdaQPUniform: CodecUniform,
		AdaQPRandom: CodecRandom, PipeGCN: CodecPipeGCN, SANCUS: CodecSancus,
	}
	for m := range Method(len(methods)) {
		name, err := CodecForMethod(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if name != want[m] {
			t.Fatalf("%v → %q, want %q", m, name, want[m])
		}
		if _, err := LookupCodec(name); err != nil {
			t.Fatalf("%v → %q: %v", m, name, err)
		}
	}
	if _, err := CodecForMethod(Method(99)); err == nil {
		t.Fatal("unknown method must not map to a codec")
	}
}

func TestParseMethodRoundTrip(t *testing.T) {
	for m := range Method(len(methods)) {
		got, err := ParseMethod(m.String())
		if err != nil {
			t.Fatalf("ParseMethod(%q): %v", m.String(), err)
		}
		if got != m {
			t.Fatalf("ParseMethod(%q) = %v, want %v", m.String(), got, m)
		}
	}
	// CLI short forms and case-insensitivity.
	for s, want := range map[string]Method{
		"uniform": AdaQPUniform, "random": AdaQPRandom,
		"VANILLA": Vanilla, "AdAqP": AdaQP, "Sancus": SANCUS, "PipeGCN": PipeGCN,
	} {
		got, err := ParseMethod(s)
		if err != nil {
			t.Fatalf("ParseMethod(%q): %v", s, err)
		}
		if got != want {
			t.Fatalf("ParseMethod(%q) = %v, want %v", s, got, want)
		}
	}
	if _, err := ParseMethod("quantum"); err == nil {
		t.Fatal("unknown method string must error")
	}
}

func TestMethodAndModelStrings(t *testing.T) {
	for m, want := range map[Method]string{
		Vanilla: "Vanilla", AdaQP: "AdaQP", AdaQPUniform: "AdaQP-uniform",
		AdaQPRandom: "AdaQP-random", PipeGCN: "PipeGCN", SANCUS: "SANCUS",
	} {
		if m.String() != want {
			t.Fatalf("%d → %q", m, m.String())
		}
	}
	if GCN.String() != "GCN" || GraphSAGE.String() != "GraphSAGE" {
		t.Fatal("model strings")
	}
}
