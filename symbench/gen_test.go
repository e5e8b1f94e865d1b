package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// inputs serializes every generated input of a seed, at a small size.
func inputs(seed int64) []byte {
	var b bytes.Buffer
	c := makeCatalog(seed, 3000)
	for _, body := range c.loadBatches() {
		b.Write(body)
	}
	for _, q := range c.queries(seed, 500) {
		fmt.Fprintf(&b, "%s|%v\n", q.text, q.words)
	}
	for _, q := range pageQueries(seed, 500) {
		fmt.Fprintf(&b, "%+v\n", q)
	}
	u := newUploads(c, seed)
	for i := 0; i < 20; i++ {
		ub := u.next()
		b.Write(ub.body)
		fmt.Fprintln(&b, ub.touched)
	}
	fmt.Fprintln(&b, poissonArrivals(seed, 50, 100))
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := sha256.Sum256(inputs(7)), sha256.Sum256(inputs(7))
	if a != b {
		t.Fatal("one seed gave two different inputs")
	}
	if c := sha256.Sum256(inputs(8)); c == a {
		t.Fatal("seeds 7 and 8 gave identical inputs")
	}
}

func TestVocabularyKeptWholeByAnalyzer(t *testing.T) {
	c := makeCatalog(1, 10)
	markers := make([]string, 5000)
	for i := range markers {
		markers[i] = marker(i)
	}
	if err := checkVocab(c.vocab, c.upVocab, c.brands, markers); err != nil {
		t.Fatal(err)
	}
}

func TestUploadMarkersCoverAtMostOnePage(t *testing.T) {
	c := makeCatalog(3, 2000)
	u := newUploads(c, 3)
	for i := 0; i < 40; i++ {
		b := u.next()
		if rows := strings.Count(string(b.body), "\n") - 1; rows != batchSize {
			t.Fatalf("batch %d has %d rows", i, rows)
		}
	}
	for m := 0; m < u.markers; m++ {
		if n := len(u.expect(m)); n < 1 || n > pageSize {
			t.Fatalf("marker %d holds %d records", m, n)
		}
	}
	// Every marker word appears in exactly the records the model gives
	// it, across all batches: replay the bodies and keep each SKU's last
	// row.
	last := map[string]string{}
	u2 := newUploads(c, 3)
	for i := 0; i < 40; i++ {
		for _, row := range strings.Split(strings.TrimSpace(string(u2.next().body)), "\n")[1:] {
			last[strings.SplitN(row, ",", 2)[0]] = row
		}
	}
	got := map[string]int{}
	for _, row := range last {
		for _, w := range strings.FieldsFunc(row, func(r rune) bool { return r == ' ' || r == ',' }) {
			if strings.HasPrefix(w, "zu") {
				got[w]++
			}
		}
	}
	for m := 0; m < u.markers; m++ {
		if got[marker(m)] != len(u.expect(m)) {
			t.Fatalf("marker %d: %d rows carry it, model says %d", m, got[marker(m)], len(u.expect(m)))
		}
	}
}
