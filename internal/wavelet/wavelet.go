// Package wavelet implements the Privlet baseline (Xiao, Wang, Gehrke,
// "Differential privacy via wavelet transforms", TKDE 2011) used by the
// paper as the W_m comparison method: a Haar wavelet transform of the
// m x m frequency matrix with noise calibrated per coefficient through a
// weight function, applied in two dimensions by standard decomposition
// (transform all rows, then all columns).
//
// Haar convention. For a vector of length n = 2^h, coefficient 0 is the
// overall average; coefficient k in [2^j, 2^{j+1}) is the "detail" of a
// subtree of s = n/2^j leaves, defined as (avg(left half) - avg(right
// half)) / 2. Reconstruction: each leaf equals the average coefficient
// plus/minus the details of its ancestors.
//
// Sensitivity. Adding one data point changes the average coefficient by
// 1/n and each ancestor detail by 1/s. With weights W(c0) = n and
// W(detail) = s, the weighted L1 sensitivity is rho = 1 + log2(n), so
// adding Lap(rho/(eps*W(c))) noise to each coefficient satisfies
// eps-differential privacy. In 2D the weights multiply and
// rho2D = (1 + log2 nx) * (1 + log2 ny).
//
// Non-power-of-two grids are zero-padded up to the next power of two; the
// padded cells lie outside the data domain, so queries never touch them
// (they only inflate rho slightly, which we accept and document).
package wavelet

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/grid"
	"github.com/dpgrid/dpgrid/internal/noise"
)

// Options configures BuildPrivlet.
type Options struct {
	// GridSize is the base grid size m (the paper's W_m notation).
	// Required.
	GridSize int
}

// Privlet is the released synopsis: the reconstructed noisy grid.
type Privlet struct {
	dom    geom.Domain
	eps    float64
	m      int
	padded int
	prefix grid.Prefix
}

// nextPow2 returns the smallest power of two >= n (n >= 1).
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// ForwardHaar1D transforms data in place into Haar coefficients using the
// package's layout. len(data) must be a power of two.
func ForwardHaar1D(data []float64) error {
	n := len(data)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("wavelet: length %d is not a power of two", n)
	}
	buf := make([]float64, n)
	for length := n; length > 1; length /= 2 {
		half := length / 2
		for i := 0; i < half; i++ {
			avg := (data[2*i] + data[2*i+1]) / 2
			diff := (data[2*i] - data[2*i+1]) / 2
			buf[i] = avg
			buf[half+i] = diff
		}
		copy(data[:length], buf[:length])
	}
	return nil
}

// InverseHaar1D inverts ForwardHaar1D in place.
func InverseHaar1D(coef []float64) error {
	n := len(coef)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("wavelet: length %d is not a power of two", n)
	}
	buf := make([]float64, n)
	for length := 2; length <= n; length *= 2 {
		half := length / 2
		for i := 0; i < half; i++ {
			avg := coef[i]
			diff := coef[half+i]
			buf[2*i] = avg + diff
			buf[2*i+1] = avg - diff
		}
		copy(coef[:length], buf[:length])
	}
	return nil
}

// Weight returns the Privlet weight W of 1D coefficient index k for a
// length-n transform: n for the average coefficient, and the subtree size
// n/2^floor(log2 k) for detail coefficients.
func Weight(k, n int) float64 {
	if k == 0 {
		return float64(n)
	}
	level := bits.Len(uint(k)) - 1 // floor(log2 k)
	return float64(n) / float64(int(1)<<level)
}

// Rho returns the generalized sensitivity 1 + log2(n) of the weighted 1D
// Haar transform.
func Rho(n int) float64 {
	return 1 + math.Log2(float64(n))
}

// BuildPrivlet constructs a Privlet synopsis of points over dom under
// eps-differential privacy.
func BuildPrivlet(points []geom.Point, dom geom.Domain, eps float64, opts Options, src noise.Source) (*Privlet, error) {
	if src == nil {
		return nil, errors.New("wavelet: nil noise source")
	}
	if _, err := noise.NewBudget(eps); err != nil {
		return nil, fmt.Errorf("wavelet: %w", err)
	}
	m := opts.GridSize
	if m <= 0 {
		return nil, fmt.Errorf("wavelet: grid size must be positive, got %d", m)
	}
	p := nextPow2(m)
	if p > 1<<13 {
		return nil, fmt.Errorf("wavelet: padded grid %d too large", p)
	}

	counts, err := grid.FromPoints(dom, m, m, points)
	if err != nil {
		return nil, fmt.Errorf("wavelet: %w", err)
	}

	// Embed the m x m histogram into the p x p padded matrix.
	mat := make([][]float64, p)
	for iy := range mat {
		mat[iy] = make([]float64, p)
	}
	for iy := 0; iy < m; iy++ {
		for ix := 0; ix < m; ix++ {
			mat[iy][ix] = counts.At(ix, iy)
		}
	}

	// Standard decomposition: all rows, then all columns.
	for iy := 0; iy < p; iy++ {
		if err := ForwardHaar1D(mat[iy]); err != nil {
			return nil, err
		}
	}
	col := make([]float64, p)
	for ix := 0; ix < p; ix++ {
		for iy := 0; iy < p; iy++ {
			col[iy] = mat[iy][ix]
		}
		if err := ForwardHaar1D(col); err != nil {
			return nil, err
		}
		for iy := 0; iy < p; iy++ {
			mat[iy][ix] = col[iy]
		}
	}

	// Noise each coefficient: Lap(rho2D / (eps * Wx * Wy)).
	rho2D := Rho(p) * Rho(p)
	for iy := 0; iy < p; iy++ {
		for ix := 0; ix < p; ix++ {
			w := Weight(ix, p) * Weight(iy, p)
			mat[iy][ix] += noise.Laplace(src, rho2D/(eps*w))
		}
	}

	// Inverse transform: columns, then rows.
	for ix := 0; ix < p; ix++ {
		for iy := 0; iy < p; iy++ {
			col[iy] = mat[iy][ix]
		}
		if err := InverseHaar1D(col); err != nil {
			return nil, err
		}
		for iy := 0; iy < p; iy++ {
			mat[iy][ix] = col[iy]
		}
	}
	for iy := 0; iy < p; iy++ {
		if err := InverseHaar1D(mat[iy]); err != nil {
			return nil, err
		}
	}

	// Crop back to the data domain.
	final, err := grid.New(dom, m, m)
	if err != nil {
		return nil, fmt.Errorf("wavelet: %w", err)
	}
	for iy := 0; iy < m; iy++ {
		for ix := 0; ix < m; ix++ {
			final.Set(ix, iy, mat[iy][ix])
		}
	}

	return &Privlet{
		dom:    dom,
		eps:    eps,
		m:      m,
		padded: p,
		prefix: grid.NewPrefix(final),
	}, nil
}

// Query estimates the number of data points in r.
func (w *Privlet) Query(r geom.Rect) float64 { return w.prefix.Query(r) }

// GridSize returns the base grid size m.
func (w *Privlet) GridSize() int { return w.m }

// PaddedSize returns the power-of-two size the transform ran on.
func (w *Privlet) PaddedSize() int { return w.padded }

// Epsilon returns the privacy budget consumed.
func (w *Privlet) Epsilon() float64 { return w.eps }

// Domain returns the synopsis domain.
func (w *Privlet) Domain() geom.Domain { return w.dom }

// TotalEstimate returns the noisy estimate of the dataset size.
func (w *Privlet) TotalEstimate() float64 { return w.prefix.Total() }
