package main

// Seeded inputs. Everything the benchmark sends to symphonyd is built
// here from --seed alone; the same seed gives byte-identical inputs.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"

	"repro/internal/textproc"
	"repro/internal/webcorpus"
)

const (
	// pageSize is MaxResults of the catalog app: one page of records.
	pageSize = 10
	// batchSize is the record count of every upload batch.
	batchSize = 256
	// vocabSize is the catalog vocabulary; uploadVocabSize the words
	// only uploaded records use, so catalog queries never match them.
	vocabSize       = 20000
	uploadVocabSize = 2000
	brandCount      = 300
	// recordZipf and queryZipf are the Zipf exponents of word choice in
	// records and in queries.
	recordZipf = 1.0
	queryZipf  = 0.9
	// querySkip is how many of the most frequent words queries never
	// use, the way an analyzer's stoplist drops a language's commonest
	// words.
	querySkip = 50
)

// Random streams: each input kind draws from its own stream, so adding
// draws to one kind never shifts another.
const (
	streamVocab = iota + 1
	streamCatalog
	streamCatalogQueries
	streamPageQueries
	streamUploads
	streamArrivals
)

func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rand.Rand) int {
	k := sort.SearchFloat64s(z.cdf, r.Float64())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

const (
	consonants = "bdfgklmnprtv"
	vowels     = "aeiou"
)

// makeWords returns n distinct lower-case words of 2 to 4
// consonant-vowel syllables after prefix, each ending in "a" or "o": a
// shape the analyzer's stemmer has no rule for. checkVocab verifies
// that at start-up.
func makeWords(r *rand.Rand, n int, prefix string) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	var b strings.Builder
	for len(out) < n {
		b.Reset()
		b.WriteString(prefix)
		syl := 2 + r.IntN(3)
		for i := 0; i < syl; i++ {
			b.WriteByte(consonants[r.IntN(len(consonants))])
			if i == syl-1 {
				b.WriteByte("ao"[r.IntN(2)])
			} else {
				b.WriteByte(vowels[r.IntN(len(vowels))])
			}
		}
		w := b.String()
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// marker returns the k-th marker word: "zu" plus k in base-60
// syllables plus "ka". No catalog or upload word starts with "z".
func marker(k int) string {
	var b strings.Builder
	b.WriteString("zu")
	for {
		s := k % 60
		b.WriteByte(consonants[s/5])
		b.WriteByte(vowels[s%5])
		k /= 60
		if k == 0 {
			break
		}
	}
	b.WriteString("ka")
	return b.String()
}

// checkVocab fails unless the analyzer keeps every word whole: one
// term, equal to the word. The page checks compare records by word,
// so a word the analyzer splits or stems would make them wrong.
func checkVocab(words ...[]string) error {
	for _, ws := range words {
		for _, w := range ws {
			terms := textproc.DefaultAnalyzer.AnalyzeTerms(w)
			if len(terms) != 1 || terms[0] != w {
				return fmt.Errorf("vocabulary word %q analyzes to %q", w, terms)
			}
		}
	}
	return nil
}

// record is one catalog row. Words holds the vocabulary ids of its
// searchable text (title, brand, description), sorted, for checks.
type record struct {
	sku, title, brand, desc, price string
}

// catalog is the tenant's large dataset and the benchmark's own
// inverted index over it, used to check pages.
type catalog struct {
	vocab   []string
	upVocab []string
	brands  []string
	wordID  map[string]int32
	recs    []record
	// words[i] is the sorted set of vocabulary ids in recs[i].
	words [][]int32
	// postings[w] lists the records containing word w, ascending.
	postings [][]int32
	skuIndex map[string]int
}

func makeCatalog(seed int64, n int) *catalog {
	vr := newRNG(seed, streamVocab)
	all := makeWords(vr, vocabSize+brandCount, "")
	c := &catalog{
		vocab:    all[:vocabSize],
		brands:   all[vocabSize:],
		upVocab:  makeWords(vr, uploadVocabSize, "s"),
		wordID:   make(map[string]int32, vocabSize+brandCount),
		recs:     make([]record, n),
		words:    make([][]int32, n),
		postings: make([][]int32, vocabSize+brandCount),
		skuIndex: make(map[string]int, n),
	}
	for i, w := range all {
		c.wordID[w] = int32(i)
	}
	r := newRNG(seed, streamCatalog)
	z := newZipf(vocabSize, recordZipf)
	pick := func(k int) []string {
		ws := make([]string, k)
		for i := range ws {
			ws[i] = c.vocab[z.draw(r)]
		}
		return ws
	}
	for i := 0; i < n; i++ {
		title := pick(2 + r.IntN(3))
		desc := pick(4 + r.IntN(5))
		rec := record{
			sku:   fmt.Sprintf("K%07d", i),
			title: strings.Join(title, " "),
			brand: c.brands[r.IntN(brandCount)],
			desc:  strings.Join(desc, " "),
			price: fmt.Sprintf("%d.%02d", 5+r.IntN(95), r.IntN(100)),
		}
		c.recs[i] = rec
		c.skuIndex[rec.sku] = i
		ids := make([]int32, 0, len(title)+len(desc)+1)
		for _, w := range title {
			ids = append(ids, c.wordID[w])
		}
		for _, w := range desc {
			ids = append(ids, c.wordID[w])
		}
		ids = append(ids, c.wordID[rec.brand])
		ids = sortedSet(ids)
		c.words[i] = ids
		for _, id := range ids {
			c.postings[id] = append(c.postings[id], int32(i))
		}
	}
	return c
}

func sortedSet(ids []int32) []int32 {
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// has reports whether record i contains word id w.
func (c *catalog) has(i int, w int32) bool {
	ws := c.words[i]
	k := sort.Search(len(ws), func(j int) bool { return ws[j] >= w })
	return k < len(ws) && ws[k] == w
}

const csvHeader = "sku,title,brand,description,price\n"

func writeRow(b *bytes.Buffer, sku, title, brand, desc, price string) {
	b.WriteString(sku)
	b.WriteByte(',')
	b.WriteString(title)
	b.WriteByte(',')
	b.WriteString(brand)
	b.WriteByte(',')
	b.WriteString(desc)
	b.WriteByte(',')
	b.WriteString(price)
	b.WriteByte('\n')
}

// loadBatches cuts the catalog into CSV upload bodies of batchSize.
func (c *catalog) loadBatches() [][]byte {
	var out [][]byte
	for lo := 0; lo < len(c.recs); lo += batchSize {
		hi := min(lo+batchSize, len(c.recs))
		var b bytes.Buffer
		b.WriteString(csvHeader)
		for _, r := range c.recs[lo:hi] {
			writeRow(&b, r.sku, r.title, r.brand, r.desc, r.price)
		}
		out = append(out, b.Bytes())
	}
	return out
}

// catQuery is one end-user query against the catalog app.
type catQuery struct {
	text  string
	words []int32
}

// catalogQueries draws n queries of 1 to 3 distinct catalog words
// (50% one word, 30% two, 20% three), each word Zipf-drawn from the
// vocabulary and present in at least one record.
func (c *catalog) queries(seed int64, n int) []catQuery {
	r := newRNG(seed, streamCatalogQueries)
	z := newZipf(vocabSize-querySkip, queryZipf)
	out := make([]catQuery, n)
	for i := range out {
		k := 1
		switch u := r.IntN(10); {
		case u >= 8:
			k = 3
		case u >= 5:
			k = 2
		}
		var ws []string
		var ids []int32
		for len(ws) < k {
			w := c.vocab[querySkip+z.draw(r)]
			id := c.wordID[w]
			if len(c.postings[id]) == 0 || containsID(ids, id) {
				continue
			}
			ws = append(ws, w)
			ids = append(ids, id)
		}
		out[i] = catQuery{text: strings.Join(ws, " "), words: ids}
	}
	return out
}

func containsID(ids []int32, id int32) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// pageQuery is one end-user query against a demo app.
type pageQuery struct {
	app, text string
	// title is set when text equals a catalog title of app.
	title bool
	json  bool
}

// demoApp names a demo application and its catalog titles, as
// symphonyd seeds them (webcorpus seed 1, ten titles each).
type demoApp struct {
	id     string
	titles []string
}

func demoApps() []demoApp {
	cfg := webcorpus.Config{Seed: 1}
	return []demoApp{
		{"gamerqueen", webcorpus.Entities(cfg, webcorpus.TopicGames)[:10]},
		{"winefinder", webcorpus.Entities(cfg, webcorpus.TopicWine)[:10]},
		{"videostore", webcorpus.Entities(cfg, webcorpus.TopicMovies)[:10]},
	}
}

// pageQueries draws n demo-app queries. Each picks an app uniformly,
// then a kind — a catalog title (40%), a single title word (40%) or a
// title with one letter dropped (20%) — and then a candidate of that
// app and kind by a Zipf(s = 1.0) stream over the shuffled candidates.
// Fixing the app and kind shares keeps the page mix, and so the cost of
// a run, the same from seed to seed. One query in five asks for
// format=json.
func pageQueries(seed int64, n int) []pageQuery {
	r := newRNG(seed, streamPageQueries)
	type bucket struct {
		qs []pageQuery
		z  *zipf
	}
	var apps [][3]bucket
	for _, a := range demoApps() {
		var b [3]bucket
		seen := map[string]bool{}
		for _, t := range a.titles {
			b[0].qs = append(b[0].qs, pageQuery{app: a.id, text: t, title: true})
			for _, w := range strings.Fields(t) {
				if !seen[w] {
					seen[w] = true
					b[1].qs = append(b[1].qs, pageQuery{app: a.id, text: w})
				}
			}
			if k := len(t); k > 4 {
				cut := 1 + r.IntN(k-2)
				b[2].qs = append(b[2].qs, pageQuery{app: a.id, text: t[:cut] + t[cut+1:]})
			}
		}
		for i := range b {
			qs := b[i].qs
			r.Shuffle(len(qs), func(x, y int) { qs[x], qs[y] = qs[y], qs[x] })
			b[i].z = newZipf(len(qs), 1.0)
		}
		apps = append(apps, b)
	}
	out := make([]pageQuery, n)
	for i := range out {
		b := &apps[r.IntN(len(apps))]
		kind := 0
		switch u := r.IntN(10); {
		case u >= 8:
			kind = 2
		case u >= 4:
			kind = 1
		}
		out[i] = b[kind].qs[b[kind].z.draw(r)]
		out[i].json = r.IntN(5) == 0
	}
	return out
}

// poissonArrivals returns n arrival offsets, in seconds, of a Poisson
// process at rate per second.
func poissonArrivals(seed int64, rate float64, n int) []float64 {
	r := newRNG(seed, streamArrivals)
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		t += r.ExpFloat64() / rate
		out[i] = t
	}
	return out
}

// uploads generates the designer's re-upload batches and models what
// the dataset holds for each marker word. Each batch is 256 records in
// groups of at most one page; a group shares one fresh marker word and
// its first record is a new SKU that is never upserted again, so a
// marker keeps at least one record forever. The other records are new
// SKUs or upserts of existing ones. An upsert of a catalog record keeps
// its catalog words and replaces its marker, so catalog queries match
// the same records whatever has been uploaded, while the marker that
// the upsert displaced must stop returning the record.
type uploads struct {
	c       *catalog
	r       *rand.Rand
	batches int
	markers int
	newSKUs int
	// pool lists the SKUs an upsert may pick: every catalog record and
	// every uploaded record that is not a group's first.
	pool []string
	// markerOf maps a SKU to the marker it carries now; members is the
	// inverse.
	markerOf map[string]int
	members  map[int]map[string]bool
}

// uploadBatch is one generated batch and the markers it changed.
type uploadBatch struct {
	n    int
	body []byte
	// touched lists the batch's new markers and the older markers its
	// upserts displaced.
	touched []int
}

func newUploads(c *catalog, seed int64) *uploads {
	u := &uploads{
		c:        c,
		r:        newRNG(seed, streamUploads),
		pool:     make([]string, len(c.recs)),
		markerOf: map[string]int{},
		members:  map[int]map[string]bool{},
	}
	for i, rec := range c.recs {
		u.pool[i] = rec.sku
	}
	return u
}

func (u *uploads) upWords(k int) string {
	ws := make([]string, k)
	for i := range ws {
		ws[i] = u.c.upVocab[u.r.IntN(len(u.c.upVocab))]
	}
	return strings.Join(ws, " ")
}

// next generates the next batch and applies it to the model.
func (u *uploads) next() *uploadBatch {
	b := &uploadBatch{n: u.batches}
	u.batches++
	var body bytes.Buffer
	body.WriteString(csvHeader)
	inBatch := map[string]bool{}
	displaced := map[int]bool{}
	var added []string
	for lo := 0; lo < batchSize; lo += pageSize {
		m := u.markers
		u.markers++
		mw := marker(m)
		b.touched = append(b.touched, m)
		u.members[m] = map[string]bool{}
		for j := lo; j < min(lo+pageSize, batchSize); j++ {
			var sku string
			if j > lo && u.r.IntN(2) == 0 {
				for sku == "" || inBatch[sku] {
					sku = u.pool[u.r.IntN(len(u.pool))]
				}
			} else {
				sku = fmt.Sprintf("N%07d", u.newSKUs)
				u.newSKUs++
				if j > lo {
					added = append(added, sku)
				}
			}
			inBatch[sku] = true
			if old, ok := u.markerOf[sku]; ok {
				delete(u.members[old], sku)
				displaced[old] = true
			}
			u.markerOf[sku] = m
			u.members[m][sku] = true
			price := fmt.Sprintf("%d.%02d", 5+u.r.IntN(95), u.r.IntN(100))
			if i, ok := u.c.skuIndex[sku]; ok {
				rec := u.c.recs[i]
				writeRow(&body, sku, rec.title, rec.brand, rec.desc+" "+mw, price)
			} else {
				writeRow(&body, sku, u.upWords(2), u.upWords(1), u.upWords(4)+" "+mw, price)
			}
		}
	}
	u.pool = append(u.pool, added...)
	old := make([]int, 0, len(displaced))
	for m := range displaced {
		old = append(old, m)
	}
	sort.Ints(old)
	b.touched = append(b.touched, old...)
	b.body = body.Bytes()
	return b
}

// expect returns the SKUs the dataset holds for marker m, sorted.
func (u *uploads) expect(m int) []string {
	out := make([]string, 0, len(u.members[m]))
	for sku := range u.members[m] {
		out = append(out, sku)
	}
	sort.Strings(out)
	return out
}
