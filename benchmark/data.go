package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
)

// scale fixes the size of the social_zipf data set. The benchmark runs
// at fullScale; the smoke test runs the same code at toyScale.
type scale struct {
	Persons, Orgs, Cities, Items int
}

var (
	fullScale = scale{Persons: 60000, Orgs: 2000, Cities: 500, Items: 5000}
	toyScale  = scale{Persons: 500, Orgs: 20, Cities: 10, Items: 50}
)

// baseShare is the part of the persons whose triples make up the 80 %
// image ingest_read starts from; the rest is posted during the run.
const baseShare = 0.8

// dataset names the files one generated social_zipf instance consists
// of, and its triple counts.
type dataset struct {
	All, Base, Tail string // N-Triples: everything, the first 80 % of persons, the rest
	Triples         int
	BaseTriples     int
}

// zipf draws k in [0, n) with P(k) ∝ (v+k)^-s: rank 0 is the most
// popular, v flattens the head so no single constant dominates.
func zipf(rng *rand.Rand, s, v float64, n int) func() int {
	z := rand.NewZipf(rng, s, v, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// ntWriter appends "s p o ." lines without fmt on the per-triple path:
// the generator writes ≈ 600k lines per run and its time is not part of
// any metric, but it is part of every run's wall time.
type ntWriter struct {
	w   *bufio.Writer
	buf []byte
	n   int
}

func (t *ntWriter) triple(s string, si int, p string, o string, oi int) {
	b := append(t.buf[:0], s...)
	b = strconv.AppendInt(b, int64(si), 10)
	b = append(b, ' ')
	b = append(b, p...)
	b = append(b, ' ')
	b = append(b, o...)
	if oi >= 0 {
		b = strconv.AppendInt(b, int64(oi), 10)
	}
	b = append(b, " .\n"...)
	t.buf = b
	t.w.Write(b) // a bufio.Writer keeps its first error for Flush
	t.n++
}

// generateSocial writes the social_zipf data set for seed into dir.
// Persons are emitted in index order with all their triples together,
// so the base/tail split is a split of the insertion order and the tail
// is exactly what a live ingest appends. Person 0 is the most-followed
// hub and also the most-queried constant; org0, city0 and item0 are the
// most popular of their kinds.
func generateSocial(dir string, sc scale, seed int64) (*dataset, error) {
	ds := &dataset{
		All:  filepath.Join(dir, "social.nt"),
		Base: filepath.Join(dir, "base.nt"),
		Tail: filepath.Join(dir, "tail.nt"),
	}
	var files []*os.File
	open := func(path string) (*ntWriter, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		return &ntWriter{w: bufio.NewWriterSize(f, 1<<20)}, nil
	}
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	all, err := open(ds.All)
	if err != nil {
		return nil, err
	}
	base, err := open(ds.Base)
	if err != nil {
		return nil, err
	}
	tail, err := open(ds.Tail)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	knowsDeg := zipf(rng, 2.2, 3, 14)
	knowsWho := zipf(rng, 1.1, 8, sc.Persons)
	org := zipf(rng, 1.1, 4, sc.Orgs)
	city := zipf(rng, 1.1, 4, sc.Cities)
	likesDeg := zipf(rng, 2.2, 3, 31)
	item := zipf(rng, 1.1, 10, sc.Items)

	part := base
	emit := func(s string, si int, p, o string, oi int) {
		all.triple(s, si, p, o, oi)
		part.triple(s, si, p, o, oi)
	}
	for o := 0; o < sc.Orgs; o++ {
		emit("org", o, "locatedIn", "city", city())
	}
	split := int(baseShare * float64(sc.Persons))
	var picked []int
	distinct := func(n int, draw func() int, skip int) []int {
		picked = picked[:0]
	next:
		for tries := 0; len(picked) < n && tries < 4*n+8; tries++ {
			k := draw()
			if k == skip {
				continue
			}
			for _, seen := range picked {
				if seen == k {
					continue next
				}
			}
			picked = append(picked, k)
		}
		return picked
	}
	for i := 0; i < sc.Persons; i++ {
		if i == split {
			part = tail
		}
		emit("person", i, "type", "Person", -1)
		for _, j := range distinct(1+knowsDeg(), knowsWho, i) {
			emit("person", i, "knows", "person", j)
		}
		if rng.Intn(10) < 7 {
			emit("person", i, "worksAt", "org", org())
		}
		if rng.Intn(3) < 2 {
			emit("person", i, "email", "mail", i)
		}
		emit("person", i, "livesIn", "city", city())
		for _, j := range distinct(likesDeg(), item, -1) {
			emit("person", i, "likes", "item", j)
		}
	}
	for _, t := range []*ntWriter{all, base, tail} {
		if err := t.w.Flush(); err != nil {
			return nil, fmt.Errorf("writing social_zipf: %w", err)
		}
	}
	for _, f := range files {
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("writing social_zipf: %w", err)
		}
	}
	files = nil
	ds.Triples, ds.BaseTriples = all.n, base.n
	return ds, nil
}

// readLines returns the lines of an N-Triples file, newline included.
func readLines(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines [][]byte
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			lines = append(lines, line)
		}
		if err == io.EOF {
			return lines, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
