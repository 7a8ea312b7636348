// Command blobbench regenerates the paper's evaluation: every table and
// figure of "Why Files If You Have a DBMS?" (ICDE 2024) has a runner that
// prints the corresponding rows or series.
//
// Usage:
//
//	blobbench -list              # show experiment ids
//	blobbench -exp fig6-10MB     # run one experiment
//	blobbench -exp all           # run everything (takes a while)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"blobdb/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment id to run (or 'all')")
	list := flag.Bool("list", false, "list experiment ids")
	flag.Parse()

	exps := bench.Experiments()
	ids := make([]string, 0, len(exps))
	for id := range exps {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, id := range ids {
			fmt.Println("  ", id)
		}
		if *exp == "" {
			fmt.Println("\nrun with -exp <id> or -exp all")
		}
		return
	}

	run := func(id string) {
		fn, ok := exps[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		res, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Print(res.String())
		fmt.Printf("(%s in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, id := range ids {
			run(id)
		}
		return
	}
	run(*exp)
}
