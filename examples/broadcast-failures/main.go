// Broadcast-failures: the Section IV story in one run. Fail 10% of a 4K
// cluster, then compare all five communication structures — and show how
// the FP-Tree's failure prediction keeps delivery time flat by placing
// likely-failed nodes at the tree's leaves.
package main

import (
	"fmt"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/fptree"
	"eslurm/internal/monitor"
	"eslurm/internal/predict"
	"eslurm/internal/simnet"
)

func run(structure comm.Structure, failRatio float64) comm.Result {
	engine := simnet.NewEngine(7)
	c := cluster.New(engine, cluster.Config{Computes: 4096, Satellites: 1})

	// Scatter failures across the cluster.
	count := int(4096 * failRatio)
	if count > 0 {
		stride := 4096 / count
		for i := 0; i < count; i++ {
			c.Fail(c.Computes()[i*stride])
		}
	}
	if fp, ok := structure.(comm.FPTree); ok {
		// The FP-Tree consults the failure predictor; use the oracle here
		// (production runs the alert-driven plugin, see below).
		fp.Predictor = predict.Oracle{Cluster: c}
		structure = fp
	}
	b := comm.NewBroadcaster(c)
	var res comm.Result
	structure.Broadcast(b, c.Satellites()[0], c.Computes(), 4096, func(r comm.Result) { res = r })
	engine.Run()
	return res
}

func main() {
	fmt.Println("== Fig. 8b in miniature (+ binomial baseline): 4KB to 4,096 nodes, 10% failed ==")
	fmt.Printf("%-12s %-14s %-10s %s\n", "structure", "delivery time", "messages", "retries")
	for _, s := range []comm.Structure{
		comm.Ring{}, comm.Star{}, comm.SharedMem{}, comm.Binomial{}, comm.KTree{}, comm.FPTree{},
	} {
		res := run(s, 0.10)
		fmt.Printf("%-12s %-14v %-10d %d\n",
			s.Name(), res.DeliveredElapsed.Round(time.Millisecond), res.Messages, res.Retries)
	}

	fmt.Println("\n== How the FP-Tree constructor works (Fig. 4) ==")
	// A 20-node list where nodes 2 and 7 are predicted to fail.
	list := make([]int, 20)
	for i := range list {
		list[i] = i
	}
	predicted := map[int]bool{2: true, 7: true}
	slots := fptree.LeafSlots(len(list), 4)
	fmt.Printf("leaf slots (width 4): %v\n", slots)
	rearranged := fptree.Rearrange(list, func(v int) bool { return predicted[v] }, 4)
	fmt.Printf("rearranged nodelist:  %v\n", rearranged)
	tree := fptree.Build(rearranged, 4)
	fmt.Printf("tree depth: %d, leaves: %v\n", tree.Depth(), tree.Leaves())
	for i, v := range rearranged {
		if predicted[v] && !slots[i] {
			fmt.Println("BUG: predicted node at interior position!")
		}
	}
	fmt.Println("predicted-failed nodes 2 and 7 now sit at leaf positions: no descendants wait on their timeouts")

	fmt.Println("\n== Prediction driven by the monitoring subsystem (BMU/CMU/SMU) ==")
	engine := simnet.NewEngine(99)
	c := cluster.New(engine, cluster.Config{Computes: 256, Satellites: 1})
	sub := monitor.New(c, monitor.Config{DetectionProb: 1.0, LeadTime: 10 * time.Minute})
	alertPred := predict.NewAlertDriven(engine, sub, time.Hour)
	victim := c.Computes()[100]
	sub.NoticeImpendingFailure(victim, 30*time.Minute)
	c.ScheduleFail(victim, 30*time.Minute, 0)
	engine.RunUntil(25 * time.Minute)
	fmt.Printf("t=25m: node %d failed=%v, predicted=%v (alert arrived with ~10m lead)\n",
		victim, c.Node(victim).Failed(), alertPred.Predicted(victim))
}
