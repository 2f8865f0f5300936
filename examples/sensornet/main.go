// Sensornet reproduces the paper's Section-2 motivating application: a
// two-tier sensor network in which battery-powered sensors forward data
// about monitored areas through battery-powered relays. Choosing how much
// data to send over each (sensor, relay) wireless link so that the
// minimum per-area data rate is maximised — equivalently, so that network
// lifetime is maximised at equal average rates — is exactly a max-min LP.
//
// The program samples a random deployment, prints its shape, and compares
// the LP optimum against the two local algorithms, including a fully
// distributed run where every wireless link is simulated by a goroutine.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"maxminlp"
)

func main() {
	seed := flag.Int64("seed", 42, "deployment seed")
	sensors := flag.Int("sensors", 30, "number of sensors")
	relays := flag.Int("relays", 8, "number of relays")
	areas := flag.Int("areas", 10, "number of monitored areas")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	sn := maxminlp.RandomSensorNetwork(maxminlp.SensorNetworkOptions{
		Sensors:           *sensors,
		Relays:            *relays,
		Areas:             *areas,
		RadioRange:        0.35,
		SenseRange:        0.3,
		MaxLinksPerSensor: 3,
	}, rng)

	in, err := sn.Instance()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployment: %d sensors, %d relays, %d areas, %d wireless links\n",
		len(sn.Sensors), len(sn.Relays), len(sn.Areas), len(sn.Links))
	fmt.Println("max-min LP:", in.Stats())

	opt, err := maxminlp.SolveOptimal(in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-22s %10s %12s\n", "algorithm", "min rate", "vs optimal")
	fmt.Printf("%-22s %10.4f %12s\n", "LP optimum (global)", opt.Omega, "1.000x")

	report := func(name string, x []float64) {
		omega := in.Objective(x)
		fmt.Printf("%-22s %10.4f %11.3fx\n", name, omega, opt.Omega/omega)
	}
	report("safe (local, r=1)", maxminlp.Safe(in))

	g := maxminlp.NewGraph(in, maxminlp.GraphOptions{})
	for _, radius := range []int{1, 2} {
		avg, err := maxminlp.LocalAverage(in, g, radius)
		if err != nil {
			log.Fatal(err)
		}
		report(fmt.Sprintf("local average (R=%d)", radius), avg.X)
	}

	// Distributed execution: each wireless link decides its data rate by
	// exchanging messages with links it shares a battery or an area with.
	nw, err := maxminlp.NewNetwork(in, g)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := maxminlp.NewEngine("sharded", maxminlp.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	tr, err := eng.Run(nw, maxminlp.AverageProtocol{Radius: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndistributed average R=1 finished in %d rounds with %d messages; ω = %.4f\n",
		tr.Rounds, tr.Messages, in.Objective(tr.X))
	fmt.Println("interpretation: run each link at its rate; the first battery dies after 1 time unit,")
	fmt.Println("and until then every monitored area delivers at least ω data per unit time.")
}
