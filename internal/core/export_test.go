package core

import "github.com/uwb-sim/concurrent-ranging/internal/pulse"

// NewReferenceDetector builds a detector forced onto the reference search
// path — the exact oracle the golden tests pin and the production spectral
// path is checked against.
func NewReferenceDetector(bank *pulse.Bank, cfg DetectorConfig) (*Detector, error) {
	return newDetector(bank, cfg, pathReference)
}

// ResidualEnergy exposes residualEnergy to the external test package.
var ResidualEnergy = residualEnergy
