// Fixture: true positives for the goroutinesafety analyzer.
package lintfixture

import "sync"

func badAddInside() {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		go func(w int) {
			wg.Add(1) // want goroutinesafety
			defer wg.Done()
			use(w)
		}(w)
	}
	wg.Wait()
}

func badSharedWrite(out []int) {
	var wg sync.WaitGroup
	wg.Add(2)
	k := 0
	for w := 0; w < 2; w++ {
		go func(w int) {
			defer wg.Done()
			out[k] = w // want goroutinesafety
		}(w)
	}
	wg.Wait()
}

func badMapWrite(m map[int]int) {
	var wg sync.WaitGroup
	wg.Add(2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			defer wg.Done()
			m[w] = w // want goroutinesafety
		}(w)
	}
	wg.Wait()
}

func use(int) {}
