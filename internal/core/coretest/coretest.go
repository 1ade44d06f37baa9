// Package coretest builds clusters for the tests of the packages above
// core.
package coretest

import (
	"testing"

	"repro/internal/core"
)

// NewCluster is core.NewCluster for a test: the cluster runs under the
// image guard (nand.Reliability.GuardImages), so an operation that
// finds a stored page image written to panics there, and when the test
// ends the cluster's drain check runs (core.Cluster.Check): no event
// pending, every image still stored verified once more, and every check
// a layer registered — its pools, its page log. A benchmark gets the
// cluster without the guard.
//
//simlint:allow unused (test-support package: the cluster every package test builds under the image guard)
func NewCluster(t testing.TB, p core.Params) *core.Cluster {
	t.Helper()
	_, p.Reliability.GuardImages = t.(*testing.T)
	c, err := core.NewCluster(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Check(); err != nil {
			t.Error(err)
		}
	})
	return c
}
