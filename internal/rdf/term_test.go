package rdf

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://example.org/a"), "<http://example.org/a>"},
		{NewLiteral("hello"), `"hello"`},
		{NewLangLiteral("Crispin Wright", "en"), `"Crispin Wright"@en`},
		{NewTypedLiteral("1942-12-21", "http://www.w3.org/2001/XMLSchema#date"),
			`"1942-12-21"^^<http://www.w3.org/2001/XMLSchema#date>`},
		{NewBlank("b0"), "_:b0"},
		{NewLiteral(`say "hi"` + "\n"), `"say \"hi\"\n"`},
		{NewLiteral(`back\slash`), `"back\\slash"`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.term, got, c.want)
		}
	}
}

func TestParseTermRoundTrip(t *testing.T) {
	terms := []Term{
		NewIRI("http://example.org/x"),
		NewLiteral("plain"),
		NewLangLiteral("bonjour", "fr"),
		NewLangLiteral("hello", "en-GB"),
		NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"),
		NewBlank("node1"),
		NewLiteral("tabs\tand\nnewlines"),
		NewLiteral(`quotes " and \ slashes`),
		NewLiteral(""),
	}
	for _, want := range terms {
		got, err := ParseTerm(want.String())
		if err != nil {
			t.Fatalf("ParseTerm(%q): %v", want.String(), err)
		}
		if got != want {
			t.Errorf("round trip %q: got %#v, want %#v", want.String(), got, want)
		}
	}
}

func TestParseTermErrors(t *testing.T) {
	bad := []string{
		"",
		"<http://no-close",
		"<>>", // written back, the IRI would end at the first '>'
		"_:",
		`"unterminated`,
		`"lit"@`,
		`"lit"^^<>`,
		`"lit"garbage`,
		"plainword",
		`"bad\qescape"`,
	}
	for _, s := range bad {
		if _, err := ParseTerm(s); err == nil {
			t.Errorf("ParseTerm(%q): expected error, got nil", s)
		}
	}
}

func TestParseTermUnicodeEscapes(t *testing.T) {
	got, err := ParseTerm(`"café"`)
	if err != nil {
		t.Fatalf("ParseTerm: %v", err)
	}
	if got.Value != "café" {
		t.Errorf("got %q, want %q", got.Value, "café")
	}
	got, err = ParseTerm(`"g\U0001F600"`)
	if err != nil {
		t.Fatalf("ParseTerm: %v", err)
	}
	if got.Value != "g\U0001F600" {
		t.Errorf("got %q, want emoji", got.Value)
	}
}

// randomTerm generates an arbitrary valid Term for property tests.
func randomTerm(r *rand.Rand) Term {
	const chars = "abcdefghijklmnopqrstuvwxyz0123456789 \"\\\n\t讀書éü"
	randStr := func(min int) string {
		n := min + r.Intn(12)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteRune([]rune(chars)[r.Intn(len([]rune(chars)))])
		}
		return b.String()
	}
	switch r.Intn(4) {
	case 0:
		return NewIRI("http://example.org/" + strings.Map(alnumOnly, randStr(1)))
	case 1:
		return NewLiteral(randStr(0))
	case 2:
		return NewLangLiteral(randStr(0), []string{"en", "fr", "zh-Hans"}[r.Intn(3)])
	default:
		return NewTypedLiteral(randStr(0), "http://www.w3.org/2001/XMLSchema#string")
	}
}

func alnumOnly(r rune) rune {
	if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
		return r
	}
	return 'x'
}

func TestTermRoundTripProperty(t *testing.T) {
	f := func() bool { return true } // signature placeholder; we drive manually
	_ = f
	cfg := &quick.Config{MaxCount: 500}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		term := randomTerm(r)
		back, err := ParseTerm(term.String())
		return err == nil && back == term
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestTermStringInjective(t *testing.T) {
	// Distinct terms must render distinctly (dictionary keys depend on it).
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomTerm(r), randomTerm(r)
		if reflect.DeepEqual(a, b) {
			return a.String() == b.String()
		}
		return a.String() != b.String()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
