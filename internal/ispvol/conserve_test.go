package ispvol_test

import (
	"testing"

	"repro/internal/accel/tablescan"
	"repro/internal/core/coretest"
	"repro/internal/ispvol"
	"repro/internal/rfs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestAccelReadsConserved: in-store SearchFile and TableScanFile
// queries run beside realtime reads of the scanned file and a churning
// file on one rfs stack, at the default scheduler's full accel budget,
// so bulk reads and ordinary ones meet at the chips. Every page a query
// counts, scanned or failed, is exactly one completed Accel-class read
// at the scheduler, a failed page exactly one failed read, and the
// engine pool drains (the cluster's drain check). Accel reads take no
// slot of the host's device window, so the scheduler's count is held to
// the cards' too: every completed Accel read is exactly one bulk read
// some card was issued. A bulk read lost or starved at a chip, or one
// issued outside the Accel class, breaks one or the other.
func TestAccelReadsConserved(t *testing.T) {
	c := coretest.NewCluster(t, fileParams(2))
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fs, _, err := rfs.NewClusterFS(c, s, rfs.ClusterConfig{}, rfs.Config{CleanLowWater: 4})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ispvol.New(c, s, nil, ispvol.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ps := fs.PageSize()
	text := seedFile(t, c, fs, "text", 256, workload.RandomPages(9))
	table := seedFile(t, c, fs, "table", 128, recordFiller(ps))
	churn := seedFile(t, c, fs, "churn", 64, workload.RandomPages(3))
	// The churn file overwrites in its own (batch) segments, so the
	// cleaner never moves a page a running query holds the address of.
	churn = churn.At(sched.Batch)
	rt := text.At(sched.Realtime)
	s.ResetStats()
	bulkReads := func() (n int64) {
		for i := range c.Nodes() {
			for card := range c.Params.CardsPerNode {
				n += c.Node(i).Card(card).BulkReads.Value()
			}
		}
		return n
	}
	bulk0 := bulkReads()

	const chains, perChain = 2, 4
	var scanned, failed, live, rtReads, writes int
	var fail error
	note := func(err error) {
		if err != nil && fail == nil {
			fail = err
		}
	}
	var query func(origin, i int)
	query = func(origin, i int) {
		if i == perChain {
			live--
			return
		}
		count := func(pages, bad int, err error) {
			note(err)
			scanned, failed = scanned+pages-bad, failed+bad
			query(origin, i+1)
		}
		if i%2 == 0 {
			sys.SearchFile(origin, text, []byte("BLUEDBM"), func(r *ispvol.SearchResult, err error) {
				if err != nil {
					count(0, 0, err)
					return
				}
				count(r.Pages, r.FailedPages, nil)
			})
			return
		}
		pred := tablescan.Predicate{Col: tablescan.ColA, Op: tablescan.OpLT, Value: 100}
		sys.TableScanFile(origin, table, pred, func(r *ispvol.ScanResult, err error) {
			if err != nil {
				count(0, 0, err)
				return
			}
			count(r.Pages, r.FailedPages, nil)
		})
	}
	// The realtime reader and the churn writer are closed loops that
	// stop when the last query has completed.
	var read func(k int)
	read = func(k int) {
		if live == 0 {
			return
		}
		rt.ReadPage(k*37%text.Pages(), func(_ []byte, err error) {
			note(err)
			rtReads++
			read(k + 4)
		})
	}
	page := make([]byte, ps)
	var write func(k int)
	write = func(k int) {
		if live == 0 {
			return
		}
		churn.WritePage(k*11%churn.Pages(), page, func(err error) {
			note(err)
			writes++
			write(k + 2)
		})
	}
	live = chains
	for origin := range chains {
		query(origin, 0)
	}
	for k := range 4 {
		read(k)
	}
	for k := range 2 {
		write(k)
	}
	c.Run()
	if fail != nil {
		t.Fatal(fail)
	}
	if live != 0 {
		t.Fatalf("%d query chains never finished", live)
	}
	if want := chains * perChain / 2 * (text.Pages() + table.Pages()); scanned+failed != want {
		t.Errorf("queries counted %d pages, want %d", scanned+failed, want)
	}
	accel := s.Snapshot().Classes[sched.Accel]
	if accel.Ops != int64(scanned+failed) || accel.Errors != int64(failed) {
		t.Errorf("%d Accel reads completed (%d failed); the queries scanned %d pages and failed %d",
			accel.Ops, accel.Errors, scanned, failed)
	}
	if bulk := bulkReads() - bulk0; bulk != accel.Ops {
		t.Errorf("the cards were issued %d bulk reads; %d Accel reads completed", bulk, accel.Ops)
	}
	if rtReads == 0 || writes == 0 {
		t.Errorf("%d realtime reads and %d churn writes ran beside the queries, want some of each", rtReads, writes)
	}
	t.Logf("%d pages scanned, %d failed; %d realtime reads, %d churn writes", scanned, failed, rtReads, writes)
}
