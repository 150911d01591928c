package flexflow

import (
	"context"

	"flexflow/internal/calib"
	"flexflow/internal/search"
)

// Virtual-time calibration. Budgeted searches (OptimizeOptions.Budget)
// charge every proposal a deterministic virtual cost so budgeted runs
// replay bit-identically; how closely a virtual second tracks a wall
// second depends on the cost profile doing the charging. Calibrate
// measures real proposal costs on this machine and fits a CostProfile;
// SetCostProfile installs it process-wide; Save/LoadCostProfile persist
// it across runs (`flexflow -calibrate` / `-cost-profile` on the CLI).
// Costs resolve through a fixed precedence chain: built-in defaults →
// installed profile → the profile's per-model override.

// CostProfile is a fitted virtual-time cost profile: per-simulation-
// mode affine models (base + perTask·N) plus per-model overrides,
// persisted as versioned JSON.
type CostProfile = calib.Profile

// CalibrateOptions configure a Calibrate run; the zero value measures a
// small model-zoo spread at quick scale.
type CalibrateOptions = calib.Options

// DefaultCostProfile returns the built-in cost profile: the
// order-of-magnitude constants budgets are priced with when nothing
// has been calibrated. Useful as a baseline to compare a fitted
// profile against.
func DefaultCostProfile() *CostProfile { return calib.Default() }

// Calibrate micro-benchmarks real proposal costs (delta and full
// simulation, across the configured models) and returns a fitted
// CostProfile. It is a wall-clock measurement: run it on an otherwise
// idle machine, then persist the result with SaveCostProfile and
// install it with SetCostProfile.
func Calibrate(ctx context.Context, opts CalibrateOptions) (*CostProfile, error) {
	return calib.Calibrate(ctx, opts)
}

// SetCostProfile installs the profile that prices proposals for every
// budgeted search, returning the previously installed profile (nil
// means the built-in order-of-magnitude defaults were in effect).
// Passing nil restores the built-in defaults. Each search resolves its
// profile once at start, so for a fixed profile budgeted runs stay
// bit-identical across invocations and pool sizes.
func SetCostProfile(p *CostProfile) *CostProfile { return search.SetCostProfile(p) }

// ActiveCostProfile returns the installed cost profile, or nil when
// budgets are priced by the built-in defaults.
func ActiveCostProfile() *CostProfile { return search.ActiveCostProfile() }

// LoadCostProfile reads and validates a profile written by
// SaveCostProfile. It returns an error — and no profile — for a
// missing or corrupt file or a schema-version mismatch; callers that
// want to proceed on the built-in defaults can treat the error as a
// warning and skip SetCostProfile.
func LoadCostProfile(path string) (*CostProfile, error) {
	return calib.Load(path)
}

// SaveCostProfile persists a profile as versioned JSON at path
// (atomically: temp file + rename).
func SaveCostProfile(p *CostProfile, path string) error {
	return calib.Save(p, path)
}

// InstallCostProfile loads the profile at path, installs it
// process-wide (SetCostProfile), and returns a description of what now
// prices budgets. When the file is missing, corrupt or version-skewed
// it leaves the previously active pricing untouched and returns the
// built-in-defaults description plus the reason as a warning — budgets
// still work, just with order-of-magnitude costs. Both CLIs route
// their -cost-profile flags through this.
func InstallCostProfile(path string) (string, error) {
	prof, warn := calib.LoadOrDefault(path)
	if warn != nil {
		return prof.Describe(), warn
	}
	SetCostProfile(prof)
	return prof.Describe(), nil
}
