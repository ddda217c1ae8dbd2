package gamestream

import (
	"fmt"
	"time"

	"repro/internal/units"
)

// System identifies one of the studied platforms.
type System string

// The three systems compared in the paper.
const (
	Stadia  System = "stadia"
	GeForce System = "geforce"
	Luna    System = "luna"
)

// Systems lists the studied platforms in the paper's presentation order.
var Systems = []System{Stadia, GeForce, Luna}

// ParseSystem returns the system called name, or an error naming the
// studied platforms, so flag and spec parsers reject a bad name before
// ProfileFor would panic on it.
func ParseSystem(name string) (System, error) {
	for _, sys := range Systems {
		if string(sys) == name {
			return sys, nil
		}
	}
	return "", fmt.Errorf("unknown system %q (want stadia, geforce, or luna)", name)
}

// ProfileFor returns the calibrated behavioural profile for a system. It
// panics on an unknown system name (a configuration error).
//
// Calibration targets (see DESIGN.md §4 and Table 1 of the paper):
//   - baseline solo bitrates 27.5 / 24.5 / 23.7 Mb/s with descending
//     variation (2.3 / 1.8 / 0.9);
//   - Stadia beats Cubic at shallow queues, defers under bufferbloat,
//     roughly fair vs BBR, adapts fastest, ~50 f/s under contention;
//   - GeForce always under fair share (more so vs BBR), resilient 55+ f/s
//     via FEC + NACK;
//   - Luna fair vs Cubic, starved by BBR with recovery slow enough to
//     exceed the measurement window at high capacity, fragile frame rate.
func ProfileFor(sys System) Profile {
	switch sys {
	case Stadia:
		return Profile{
			Name:             string(Stadia),
			MaxRate:          units.Mbps(27.5),
			MinRate:          units.Mbps(6),
			ComplexityStdDev: 0.24,
			BaseFPS:          60,
			FPSLadder: []FPSRung{
				{MinRate: units.Mbps(9), FPS: 60},
				{MinRate: units.Mbps(5), FPS: 50},
				{MinRate: units.Mbps(2.5), FPS: 40},
				{MinRate: 0, FPS: 30},
			},
			CongestionFPSCap: 50,
			FECRate:          0.05,
			NACK:             true,
			PlayoutDelay:     200 * time.Millisecond,
			NewController: func() Controller {
				return NewDelayGradient(DelayGradientConfig{
					Min:              units.Mbps(6),
					Max:              units.Mbps(27.5),
					IncreaseFactor:   1.012,
					InitThreshold:    13 * time.Millisecond,
					MaxThreshold:     65 * time.Millisecond,
					GainUp:           1.0,
					GainDown:         0.08,
					Beta:             0.85,
					LossThreshold:    0.10,
					HoldAfterBackoff: 800 * time.Millisecond,
					AdditiveStep:     units.Kbps(40),
				})
			},
		}
	case GeForce:
		return Profile{
			Name:             string(GeForce),
			MaxRate:          units.Mbps(24.5),
			MinRate:          units.Mbps(5.5),
			ComplexityStdDev: 0.20,
			BaseFPS:          60,
			// GeForce holds frame rate and scales resolution instead:
			// the ladder only bends at very low rates.
			FPSLadder: []FPSRung{
				{MinRate: units.Mbps(2), FPS: 60},
				{MinRate: 0, FPS: 50},
			},
			CongestionFPSCap: 0,
			FECRate:          0.15,
			NACK:             true,
			PlayoutDelay:     200 * time.Millisecond,
			NewController: func() Controller {
				return NewConservative(ConservativeConfig{
					Min:             units.Mbps(5.5),
					Max:             units.Mbps(24.5),
					Headroom:        0.80,
					LossThreshold:   0.005,
					DelayThreshold:  10 * time.Millisecond,
					CleanBeforeRamp: 1500 * time.Millisecond,
					RampPerSec:      units.Mbps(0.4),
					DescentPerSec:   units.Mbps(0.55),
				})
			},
		}
	case Luna:
		return Profile{
			Name:             string(Luna),
			MaxRate:          units.Mbps(23.7),
			MinRate:          units.Mbps(2.4),
			ComplexityStdDev: 0.10,
			BaseFPS:          60,
			FPSLadder: []FPSRung{
				{MinRate: units.Mbps(8), FPS: 60},
				{MinRate: units.Mbps(5), FPS: 50},
				{MinRate: units.Mbps(3), FPS: 40},
				{MinRate: units.Mbps(2), FPS: 30},
				{MinRate: 0, FPS: 20},
			},
			CongestionFPSCap: 0,
			FECRate:          0,
			NACK:             false,
			PlayoutDelay:     180 * time.Millisecond,

			NewController: func() Controller {
				return NewLossAIMD(LossAIMDConfig{
					Min:               units.Mbps(2.4),
					Max:               units.Mbps(23.7),
					Beta:              0.75,
					LossThreshold:     0.015,
					PersistWindows:    2,
					EventDebounce:     800 * time.Millisecond,
					GrowthPerSec:      0.015,
					DelayThreshold:    30 * time.Millisecond,
					MaxDelayThreshold: 130 * time.Millisecond,
					RxHeadroom:        1.15,
				})
			},
		}
	}
	panic("gamestream: unknown system " + string(sys))
}

// VideoCallProfile returns a live video-conferencing flow model (the
// paper's future-work traffic mix): a GCC-controlled 30 f/s stream capped
// at 3.5 Mb/s — much smaller and more delay-averse than a game stream.
func VideoCallProfile() Profile {
	return Profile{
		Name:             "videocall",
		MaxRate:          units.Mbps(3.5),
		MinRate:          units.Kbps(300),
		ComplexityStdDev: 0.15,
		BaseFPS:          30,
		FPSLadder: []FPSRung{
			{MinRate: units.Mbps(1), FPS: 30},
			{MinRate: 0, FPS: 15},
		},
		FECRate:      0.10,
		NACK:         false,
		PlayoutDelay: 150 * time.Millisecond,
		NewController: func() Controller {
			return NewDelayGradient(DelayGradientConfig{
				Min:              units.Kbps(300),
				Max:              units.Mbps(3.5),
				IncreaseFactor:   1.02,
				InitThreshold:    12 * time.Millisecond,
				MaxThreshold:     50 * time.Millisecond,
				GainUp:           0.8,
				GainDown:         0.05,
				Beta:             0.85,
				LossThreshold:    0.08,
				HoldAfterBackoff: 600 * time.Millisecond,
				AdditiveStep:     units.Kbps(25),
			})
		},
	}
}
