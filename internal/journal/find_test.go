package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// scanState is State's replay with the member lookup done the obvious
// way — a scan over Members — kept as the oracle for find's binary
// search. Only the lookup differs; the folding rules are Apply's.
type scanState struct{ State }

func (s *scanState) find(name string) int {
	for i := range s.Members {
		if s.Members[i].Name == name {
			return i
		}
	}
	return -1
}

func (s *scanState) apply(r Record) {
	switch r.Kind {
	case KindRegister:
		m := Member{Name: r.App, Procs: int(r.A), Weight: int(r.B), LastSeen: r.At}
		if i := s.find(r.App); i >= 0 {
			m.Target = s.Members[i].Target
			s.Members[i] = m
			break
		}
		at := 0
		for at < len(s.Members) && s.Members[at].Name < r.App {
			at++
		}
		s.Members = append(s.Members[:at], append([]Member{m}, s.Members[at:]...)...)
	case KindUnregister, KindLeaseExpiry:
		if i := s.find(r.App); i >= 0 {
			s.Members = append(s.Members[:i], s.Members[i+1:]...)
		}
	case KindTarget:
		if i := s.find(r.App); i >= 0 {
			s.Members[i].Target = int(r.A)
		}
	default:
		s.State.Apply(r) // the kinds that touch no member
		return
	}
	s.LastSeq, s.At = r.Seq, r.At
}

// churnRecord draws one record of membership traffic over a fleet of m
// names (so most registers hit a present member once the fleet fills).
func churnRecord(rng *rand.Rand, seq uint64, m int) Record {
	r := Record{Seq: seq, At: int64(1000 + seq), App: fmt.Sprintf("app%05d", rng.Intn(m))}
	switch rng.Intn(8) {
	case 0, 1:
		r.Kind, r.A, r.B = KindRegister, int64(1+rng.Intn(8)), int64(1+rng.Intn(3))
	case 2:
		r.Kind = KindUnregister
	case 3:
		r.Kind, r.A = KindLeaseExpiry, 1
	case 4:
		r.Kind, r.App, r.A = KindRebalance, "", int64(rng.Intn(100))
	default:
		r.Kind, r.A, r.Epoch = KindTarget, int64(rng.Intn(16)), seq/8
	}
	return r
}

// TestFindMatchesLinearScan replays random register/unregister/target
// sequences through Apply and through the scanning oracle: after every
// record find agrees with the scan for a present and an absent name, and
// at the end the two states marshal to the same bytes.
func TestFindMatchesLinearScan(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(300)
		var got State
		var want scanState
		for seq := uint64(1); seq <= 2000; seq++ {
			r := churnRecord(rng, seq, m)
			got.Apply(r)
			want.apply(r)
			for _, name := range []string{r.App, fmt.Sprintf("app%05d", rng.Intn(m+2)), "", "zzz"} {
				if g, w := got.find(name), want.find(name); g != w {
					t.Fatalf("seed %d after record %d (%s %q): find(%q) = %d, scan finds %d", seed, seq, r.Kind, r.App, name, g, w)
				}
			}
		}
		g, err := json.Marshal(&got)
		if err != nil {
			t.Fatal(err)
		}
		w, err := json.Marshal(&want.State)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("seed %d: replayed state differs from the scanning replay\n got  %s\n want %s", seed, g, w)
		}
	}
}

// BenchmarkRecover is boot-time fsck and replay. The m= cases replay
// 20,000 records of membership traffic over a fleet of m: the cost per
// record must not grow with m (what is left is decoding each record).
// records=10k is the restart-latency budget: 10,000 target records over
// 32 applications, one in fifty a registration.
func BenchmarkRecover(b *testing.B) {
	for _, m := range []int{200, 2000} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			benchRecover(b, 20000, func(seq uint64) Record {
				if seq <= uint64(m) { // seat the whole fleet first
					return Record{Kind: KindRegister, App: fmt.Sprintf("app%05d", seq-1), A: 4, B: 1}
				}
				return churnRecord(rng, seq, m)
			})
		})
	}
	b.Run("records=10k", func(b *testing.B) {
		benchRecover(b, 10_000, func(seq uint64) Record {
			i := int64(seq - 1)
			r := Record{At: i, Kind: KindTarget, App: fmt.Sprintf("app%d", i%32), A: i % 16, B: (i + 1) % 16}
			if i%50 == 0 {
				r.Kind = KindRegister
			}
			return r
		})
	})
}

// benchRecover journals records records, the seq-th made by record, and
// times Recover over them.
func benchRecover(b *testing.B, records uint64, record func(seq uint64) Record) {
	b.ReportAllocs()
	dir := b.TempDir()
	w, err := Open(dir, 1, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for seq := uint64(1); seq <= records; seq++ {
		if _, err := w.Append(record(seq)); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Recover(dir)
		if err != nil || res.Replayed != int(records) {
			b.Fatalf("Recover replayed %d of %d records: %v", res.Replayed, records, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
}
