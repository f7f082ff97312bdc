package workflowgen

import (
	"math"

	"lipstick/internal/nested"
)

// The paper's Arctic-stations workflows initialize each station's state
// with monthly meteorological observations from the Russian Arctic,
// 1961-2000 (Radionov & Fetterer, NSIDC). That dataset is not available
// here, so this file generates a synthetic equivalent with the same shape:
// one tuple per station-month over 1961-2000 (480 tuples per station), six
// meteorological variables, with a physically plausible seasonal air
// temperature cycle per station. The experiments only depend on the
// dataset's shape and on the selectivity ratios (all=1, season=1/4,
// month=1/12, year=12/480), which the synthetic data preserves exactly.

// HistoryStartYear and HistoryEndYear bound the historical record.
const (
	HistoryStartYear = 1961
	HistoryEndYear   = 2000
)

// Observation is one station-month measurement of six meteorological
// variables.
type Observation struct {
	Year     int
	Month    int // 1..12
	AirTemp  float64
	Pressure float64
	Humidity float64
	Wind     float64
	Precip   float64
	SoilTemp float64
}

// ObsSchema is the relational schema of station observations.
func ObsSchema() *nested.Schema {
	return nested.NewSchema(
		nested.Field{Name: "Year", Type: intT()},
		nested.Field{Name: "Month", Type: intT()},
		nested.Field{Name: "AirTemp", Type: fltT()},
		nested.Field{Name: "Pressure", Type: fltT()},
		nested.Field{Name: "Humidity", Type: fltT()},
		nested.Field{Name: "Wind", Type: fltT()},
		nested.Field{Name: "Precip", Type: fltT()},
		nested.Field{Name: "SoilTemp", Type: fltT()},
	)
}

// Tuple converts the observation to a tuple following ObsSchema.
func (o Observation) Tuple() *nested.Tuple {
	return nested.NewTuple(
		nested.Int(int64(o.Year)), nested.Int(int64(o.Month)),
		nested.Float(o.AirTemp), nested.Float(o.Pressure),
		nested.Float(o.Humidity), nested.Float(o.Wind),
		nested.Float(o.Precip), nested.Float(o.SoilTemp),
	)
}

// obsHash is a deterministic 64-bit mix of (seed, station, year, month,
// variable) used to generate reproducible noise without math/rand state.
func obsHash(seed int64, station, year, month, variable int) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^
		uint64(station)*0xC2B2AE3D27D4EB4F ^
		uint64(year)*0x165667B19E3779F9 ^
		uint64(month)*0x27D4EB2F165667C5 ^
		uint64(variable)*0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	// Map to [0,1).
	return float64(x>>11) / float64(1<<53)
}

// noise returns deterministic noise in [-amp, amp).
func noise(seed int64, station, year, month, variable int, amp float64) float64 {
	return amp * (2*obsHash(seed, station, year, month, variable) - 1)
}

// StationObservation generates the synthetic measurement for one station
// and month. Stations differ by a latitude-like base offset; air
// temperature follows a seasonal cycle (coldest in January, warmest in
// July) typical of the Russian Arctic.
func StationObservation(seed int64, station, year, month int) Observation {
	base := -10.0 - 0.4*float64(station%25)
	// Seasonal cycle peaking in July (+14) and bottoming in January (-14).
	seasonal := 14 * math.Cos(2*math.Pi*float64(month-7)/12)
	air := base + seasonal + noise(seed, station, year, month, 0, 4)
	return Observation{
		Year:     year,
		Month:    month,
		AirTemp:  round1(air),
		Pressure: round1(1010 + noise(seed, station, year, month, 1, 15)),
		Humidity: round1(75 + noise(seed, station, year, month, 2, 20)),
		Wind:     round1(6 + noise(seed, station, year, month, 3, 5.5)),
		Precip:   round1(22 + noise(seed, station, year, month, 4, 18)),
		SoilTemp: round1(air + 2 + noise(seed, station, year, month, 5, 2)),
	}
}

func round1(f float64) float64 { return math.Round(f*10) / 10 }

// HistoricalBag renders a subrange of the history as a bag. years limits
// the record length (0 = full 1961-2000), letting benchmarks scale the
// state size down while preserving the selectivity ratios.
func HistoricalBag(seed int64, station, years int) *nested.Bag {
	start := HistoryStartYear
	if years > 0 && years < HistoryEndYear-HistoryStartYear+1 {
		start = HistoryEndYear - years + 1
	}
	bag := nested.NewBag()
	for year := start; year <= HistoryEndYear; year++ {
		for month := 1; month <= 12; month++ {
			bag.Add(StationObservation(seed, station, year, month).Tuple())
		}
	}
	return bag
}
