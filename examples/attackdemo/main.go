// Attackdemo: a guided walk through the paper's headline scenario — a
// stack-buffer overflow that hijacks a return address. The unprotected
// baseline is fully compromised; the EILID device resets the moment the
// corrupted return address fails the shadow-stack check.
//
// Both devices run as one fleet batch: the two scenarios crossed with
// the baseline and eilid defense columns. The runner's per-job check is
// the verdict — the baseline must fall, EILID must reset for the
// scenario's declared reason without running attacker code.
package main

import (
	"fmt"
	"log"

	"eilid/internal/attacks"
	"eilid/internal/core"
	"eilid/internal/fleet"
)

func main() {
	pipeline, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	var selected []attacks.Scenario
	var names []string
	for _, sc := range attacks.Scenarios() {
		if sc.Name == "stack-smash" || sc.Name == "rop-chain" {
			selected, names = append(selected, sc), append(names, sc.Name)
		}
	}
	runner, err := fleet.NewRunner(pipeline, fleet.BatchSpec{Matrix: fleet.MatrixSpec{
		NoApps:    true,
		Scenarios: names,
		Defenses:  []string{core.DefenseBaseline.Name, core.DefenseEILID.Name},
	}})
	if err != nil {
		log.Fatal(err)
	}
	// Each scenario's baseline job, then its eilid job.
	var results []fleet.JobResult
	if _, _, err := runner.Run(nil, nil, func(jr fleet.JobResult) { results = append(results, jr) }); err != nil {
		log.Fatal(err)
	}

	for i, sc := range selected {
		base, prot := results[2*i], results[2*i+1]
		for _, jr := range []fleet.JobResult{base, prot} {
			if jr.Err != "" {
				log.Fatalf("%s under %s: %s", jr.Name, jr.Defense, jr.Err)
			}
		}
		fmt.Printf("== %s (%s) ==\n%s\n\n", sc.Name, sc.Property, sc.Description)
		fmt.Printf("baseline device:   compromised=%v exit=0x%02x\n",
			base.Compromised, base.ExitCode)
		fmt.Printf("EILID device:      compromised=%v resets=%d reason=%s\n",
			prot.Compromised, prot.Resets, prot.Reason)
		if base.CheckOK && prot.CheckOK {
			fmt.Println("verdict:           attack demonstrated on the baseline, STOPPED by EILID")
		} else {
			fmt.Println("verdict:           NOT DEFENDED")
		}
		fmt.Println()
	}
}
