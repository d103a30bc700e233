package nws

import (
	"testing"

	"mpichgq/internal/sim"
)

func TestForecasterConstantSeries(t *testing.T) {
	f := NewForecaster()
	for i := 0; i < 50; i++ {
		f.Add(42)
	}
	if got := f.Forecast(); got != 42 {
		t.Fatalf("forecast = %v, want 42", got)
	}
}

func TestForecasterTracksShift(t *testing.T) {
	f := NewForecaster()
	for i := 0; i < 30; i++ {
		f.Add(10)
	}
	for i := 0; i < 30; i++ {
		f.Add(100)
	}
	got := f.Forecast()
	if got < 90 || got > 110 {
		t.Fatalf("forecast after level shift = %v, want ~100", got)
	}
}

func TestForecasterMedianBeatsMeanOnSpikes(t *testing.T) {
	// A series that is 10 with occasional huge spikes: the median
	// predictors should win the battle and forecast ~10.
	f := NewForecaster()
	rng := sim.NewRNG(1)
	for i := 0; i < 200; i++ {
		v := 10.0
		if rng.Intn(10) == 0 {
			v = 1000
		}
		f.Add(v)
	}
	if got := f.Forecast(); got > 50 {
		t.Fatalf("forecast on spiky series = %v, want near 10", got)
	}
}

func TestForecasterNoSamples(t *testing.T) {
	f := NewForecaster()
	if f.Forecast() != 0 || f.Len() != 0 {
		t.Fatal("empty forecaster should report zero")
	}
}

func TestForecasterHistoryBounded(t *testing.T) {
	f := NewForecaster()
	for i := 0; i < 1000; i++ {
		f.Add(float64(i))
	}
	if f.Len() > 128 {
		t.Fatalf("history length %d exceeds bound", f.Len())
	}
}
