package rank

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"groupform/internal/dataset"
)

// table1 is Example 1 of the paper (users 0..5 = u1..u6, items
// 0..2 = i1..i3).
func table1(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.FromDense(dataset.DefaultScale, [][]float64{
		{1, 4, 3},
		{2, 3, 5},
		{2, 5, 1},
		{2, 5, 1},
		{3, 1, 1},
		{1, 2, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestTopKPaperExample(t *testing.T) {
	ds := table1(t)
	// Paper: L_{u2} = <i3,5; i2,3; i1,2>. Our u2 is user 1, i3 is
	// item 2.
	p, err := TopK(ds, 1, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantItems := []dataset.ItemID{2, 1, 0}
	wantScores := []float64{5, 3, 2}
	for j := range wantItems {
		if p.Items[j] != wantItems[j] || p.Scores[j] != wantScores[j] {
			t.Fatalf("TopK(u2) = %v/%v, want %v/%v", p.Items, p.Scores, wantItems, wantScores)
		}
	}
	if !strings.Contains(p.String(), "i2,5") {
		t.Errorf("String() = %q", p.String())
	}
}

func TestTopKTieBreakByItemID(t *testing.T) {
	ds := table1(t)
	// u5 (user 4) rates i2=1 and i3=1; the tie must resolve to the
	// smaller item ID, i2 (item 1).
	p, err := TopK(ds, 4, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Items[0] != 0 || p.Items[1] != 1 {
		t.Errorf("u5 top-2 = %v, want [0 1]", p.Items)
	}
	if p.Scores[0] != 3 || p.Scores[1] != 1 {
		t.Errorf("u5 scores = %v, want [3 1]", p.Scores)
	}
}

func TestTopKErrors(t *testing.T) {
	ds := table1(t)
	if _, err := TopK(ds, 0, 0, 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := TopK(ds, 0, 4, 0); err == nil {
		t.Error("k > m should error")
	}
}

func TestTopKPadsSparseUser(t *testing.T) {
	b := dataset.NewBuilder(dataset.DefaultScale)
	b.MustAdd(1, 5, 4)
	b.MustAdd(2, 5, 3)
	b.MustAdd(2, 7, 2)
	b.MustAdd(2, 9, 1)
	ds := b.Build()
	p, err := TopK(ds, 1, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Fatalf("padded length = %d, want 3", p.Len())
	}
	if p.Items[0] != 5 || p.Scores[0] != 4 {
		t.Errorf("first entry = %v:%v", p.Items[0], p.Scores[0])
	}
	// Padding: unrated items in ascending ID at score 0.
	if p.Items[1] != 7 || p.Scores[1] != 0 || p.Items[2] != 9 || p.Scores[2] != 0 {
		t.Errorf("padding = %v/%v", p.Items, p.Scores)
	}
	// An unknown user has no ratings: the list is all padding.
	if p, err := TopK(ds, 99, 2, 1); err != nil || !reflect.DeepEqual(p, PrefList{User: 99, Items: []dataset.ItemID{5, 7}, Scores: []float64{1, 1}}) {
		t.Errorf("TopK(unknown) = %v, %v", p, err)
	}
}

func TestAllTopK(t *testing.T) {
	ds := table1(t)
	ps, err := AllTopK(ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 6 {
		t.Fatalf("len = %d, want 6", len(ps))
	}
	for i, p := range ps {
		if p.User != ds.Users()[i] {
			t.Errorf("pref %d for user %d, want %d", i, p.User, ds.Users()[i])
		}
		if p.Len() != 2 {
			t.Errorf("user %d list length %d", p.User, p.Len())
		}
	}
}

func TestAllTopKPropagatesError(t *testing.T) {
	ds := table1(t)
	if _, err := AllTopK(ds, 99, 0); err == nil {
		t.Error("k > m should error")
	}
}

func TestFullRanking(t *testing.T) {
	b := dataset.NewBuilder(dataset.DefaultScale)
	b.MustAdd(1, 10, 4)
	b.MustAdd(1, 30, 2)
	b.MustAdd(2, 20, 5)
	ds := b.Build()
	got := FullRanking(ds, 1, 0)
	// Items sorted: 10, 20, 30.
	want := []float64{4, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FullRanking = %v, want %v", got, want)
		}
	}
}

func TestKendallIdentical(t *testing.T) {
	a := []float64{5, 4, 3, 2, 1}
	d, err := KendallTau(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("distance to self = %v, want 0", d)
	}
}

func TestKendallReversal(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{5, 4, 3, 2, 1}
	d, err := KendallTau(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("distance of reversal = %v, want 1", d)
	}
}

func TestKendallSingleSwap(t *testing.T) {
	// Rankings differing by one adjacent transposition among 4
	// items: 1 discordant pair of C(4,2)=6.
	a := []float64{4, 3, 2, 1}
	b := []float64{3, 4, 2, 1}
	d, err := KendallTau(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-1.0/6.0) > 1e-12 {
		t.Errorf("d = %v, want 1/6", d)
	}
}

func TestKendallTiesAgree(t *testing.T) {
	// Both rankings tie the same pair: no penalty.
	a := []float64{3, 3, 1}
	b := []float64{2, 2, 1}
	d, err := KendallTau(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("d = %v, want 0", d)
	}
}

func TestKendallTieInOne(t *testing.T) {
	// Pair (0,1): tied in a, ordered in b -> 0.5 of C(2,2)=1 pair...
	// m=2 so total pairs = 1, distance = 0.5.
	a := []float64{2, 2}
	b := []float64{1, 2}
	d, err := KendallTau(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0.5 {
		t.Errorf("d = %v, want 0.5", d)
	}
}

func TestKendallLengthMismatch(t *testing.T) {
	if _, err := KendallTau([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := KendallTauNaive([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error (naive)")
	}
}

func TestKendallShortInputs(t *testing.T) {
	for _, in := range [][]float64{nil, {1}} {
		d, err := KendallTau(in, in)
		if err != nil || d != 0 {
			t.Errorf("KendallTau(%v) = %v,%v", in, d, err)
		}
	}
}

// Property: the O(m log m) implementation agrees with the O(m^2)
// reference on random score vectors with ties.
func TestKendallMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(40)
		a := make([]float64, m)
		b := make([]float64, m)
		for i := range a {
			a[i] = float64(rng.Intn(5)) // many ties
			b[i] = float64(rng.Intn(5))
		}
		fast, err1 := KendallTau(a, b)
		slow, err2 := KendallTauNaive(a, b)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(fast-slow) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Kendall distance is symmetric and bounded in [0,1], and
// satisfies the triangle inequality on strict rankings.
func TestKendallMetricProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 3 + rng.Intn(20)
		mk := func() []float64 {
			xs := make([]float64, m)
			for i := range xs {
				xs[i] = float64(i)
			}
			rng.Shuffle(m, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
			return xs
		}
		a, b, c := mk(), mk(), mk()
		dab, _ := KendallTau(a, b)
		dba, _ := KendallTau(b, a)
		dac, _ := KendallTau(a, c)
		dcb, _ := KendallTau(c, b)
		if math.Abs(dab-dba) > 1e-12 {
			return false
		}
		if dab < 0 || dab > 1 {
			return false
		}
		return dab <= dac+dcb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCountInversions(t *testing.T) {
	tests := []struct {
		in   []float64
		want int64
	}{
		{nil, 0},
		{[]float64{1}, 0},
		{[]float64{1, 2, 3}, 0},
		{[]float64{3, 2, 1}, 3},
		{[]float64{2, 1, 3}, 1},
		{[]float64{1, 1, 1}, 0}, // ties are not inversions
		{[]float64{2, 1, 1}, 2},
	}
	for _, tc := range tests {
		in := make([]float64, len(tc.in))
		copy(in, tc.in)
		if got := countInversions(in); got != tc.want {
			t.Errorf("countInversions(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
