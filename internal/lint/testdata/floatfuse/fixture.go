// Fixture for the floatfuse analyzer: each want comment pins a float
// product that an add or subtract around it could fuse with on arm64;
// every unmarked expression is one the check must leave alone.
package fixture

const scale = 2.5

func madd(x, y, z float64) float64 {
	return x*y + z // want `floatfuse: product x\*y may fuse`
}

func msub(x, y, z float64) float64 {
	return z - (x * y) // want `floatfuse: product x\*y may fuse`
}

func twoProducts(a, b, c, d float32) float32 {
	return a*b - c*d // want `floatfuse: product a\*b` `floatfuse: product c\*d`
}

func accumulate(xs, ws []float64) float64 {
	var s float64
	for i := range xs {
		s += xs[i] * ws[i] // want `floatfuse: product xs\[...\]\*ws\[...\] may fuse`
	}
	return s
}

func byConstant(x, z float64) float64 {
	return scale*x + z // want `floatfuse: product scale\*x may fuse`
}

// converted rounds the product first: no fusion.
func converted(x, y, z float64) float64 {
	return float64(x*y) + z
}

// folded is a constant expression: the compiler computes it.
func folded(z float64) float64 {
	return scale*4 + z
}

// integers never fuse.
func integers(a, b, c int) int {
	return a*b + c
}

// quotient has no fused form.
func quotient(x, y, z float64) float64 {
	return x/y + z
}

// product alone, then a separate use.
func product(x, y float64) float64 {
	return x * y
}
