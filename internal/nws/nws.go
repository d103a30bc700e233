// Package nws provides Network Weather Service-style forecasting
// (Wolski, HPDC'97 — the paper's reference [35]). §5.4 suggests
// computing "the 'correct' token bucket size dynamically, by using
// application-specific information and perhaps also dynamic network
// performance data [35]"; gq.Watchdog feeds a Forecaster the goodput
// it measures and acts on the forecast.
//
// Following NWS's design, a Forecaster runs a battery of simple
// predictors (last value, sliding means, sliding medians) over a
// measurement series and answers each query with the prediction of
// whichever predictor has the lowest cumulative error so far.
package nws

import "sort"

// predictor is one forecasting strategy over the sample history.
type predictor interface {
	predict(history []float64) float64
}

type lastValue struct{}

func (lastValue) predict(h []float64) float64 {
	return h[len(h)-1]
}

type slidingMean struct{ w int }

func (p slidingMean) predict(h []float64) float64 {
	start := len(h) - p.w
	if start < 0 {
		start = 0
	}
	sum := 0.0
	for _, v := range h[start:] {
		sum += v
	}
	return sum / float64(len(h)-start)
}

type slidingMedian struct{ w int }

func (p slidingMedian) predict(h []float64) float64 {
	start := len(h) - p.w
	if start < 0 {
		start = 0
	}
	win := append([]float64(nil), h[start:]...)
	sort.Float64s(win)
	n := len(win)
	if n%2 == 1 {
		return win[n/2]
	}
	return (win[n/2-1] + win[n/2]) / 2
}

// Forecaster runs the predictor battery over one measurement series.
type Forecaster struct {
	history    []float64
	maxHistory int
	predictors []predictor
	// errs[i] is predictor i's cumulative absolute error; pending[i]
	// its outstanding prediction awaiting the next sample.
	errs    []float64
	pending []float64
	primed  bool
}

// NewForecaster returns a forecaster with the standard NWS battery.
func NewForecaster() *Forecaster {
	ps := []predictor{
		lastValue{},
		slidingMean{w: 5}, slidingMean{w: 20},
		slidingMedian{w: 5}, slidingMedian{w: 20},
	}
	return &Forecaster{
		maxHistory: 128,
		predictors: ps,
		errs:       make([]float64, len(ps)),
		pending:    make([]float64, len(ps)),
	}
}

// Add feeds one measurement: pending predictions are scored against
// it, then fresh predictions are formed.
func (f *Forecaster) Add(v float64) {
	if f.primed {
		for i := range f.predictors {
			d := f.pending[i] - v
			if d < 0 {
				d = -d
			}
			f.errs[i] += d
		}
	}
	f.history = append(f.history, v)
	if len(f.history) > f.maxHistory {
		f.history = f.history[len(f.history)-f.maxHistory:]
	}
	for i, p := range f.predictors {
		f.pending[i] = p.predict(f.history)
	}
	f.primed = true
}

// Len returns the number of samples seen.
func (f *Forecaster) Len() int { return len(f.history) }

// best returns the index of the lowest-error predictor.
func (f *Forecaster) best() int {
	bi := 0
	for i, e := range f.errs {
		if e < f.errs[bi] {
			bi = i
		}
	}
	return bi
}

// Forecast returns the current prediction of the best predictor (0 if
// no samples).
func (f *Forecaster) Forecast() float64 {
	if len(f.history) == 0 {
		return 0
	}
	return f.pending[f.best()]
}
