package blinktree

import "testing"

// TestChurnReclaimsInBackground runs a default tree as a sliding-window
// queue — insert at the head, delete at the tail — so compression
// merges and retires pages all along. With nobody calling
// CollectGarbage, the background compressor must free them itself and
// keep the limbo list small (§5.3).
func TestChurnReclaimsInBackground(t *testing.T) {
	tr, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const window = 20_000
	ops := 4_000_000
	if raceEnabled || testing.Short() {
		ops = 400_000
	}
	// Limbo is collected once a batch of 64 builds up; pages retired
	// during a Collect wait for the next one, so allow a few batches.
	const maxLimbo = 512
	for i := 0; 2*i < ops; i++ {
		if err := tr.Insert(Key(i), Value(i)); err != nil {
			t.Fatal(err)
		}
		if i >= window {
			if err := tr.Delete(Key(i - window)); err != nil {
				t.Fatal(err)
			}
		}
		if i%50_000 == 0 && i > 0 {
			st, err := tr.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Reclaim.Limbo > maxLimbo {
				t.Fatalf("after %d ops limbo holds %d pages (retired %d, freed %d)",
					2*i, st.Reclaim.Limbo, st.Reclaim.Retired, st.Reclaim.Freed)
			}
		}
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Reclaim.Retired == 0 || st.Reclaim.Freed == 0 {
		t.Fatalf("retired %d, freed %d pages: nothing reclaimed in the background",
			st.Reclaim.Retired, st.Reclaim.Freed)
	}
	if st.Reclaim.Limbo > maxLimbo {
		t.Fatalf("limbo holds %d pages at the end", st.Reclaim.Limbo)
	}
	if tr.Len() != window {
		t.Fatalf("Len() = %d, want %d", tr.Len(), window)
	}
}
