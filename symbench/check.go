package main

import (
	"encoding/json"
	"fmt"
	"html"
	"net/url"
	"regexp"
	"slices"
	"strings"
)

// The page checks read symphonyd's HTML. Rendered text and attribute
// values are escaped, so a raw '<' always starts a tag.

// elem is one element of a page: s[start:end] is its markup.
type elem struct{ start, end int }

var voidTags = map[string]bool{"img": true, "br": true, "hr": true, "input": true, "meta": true, "link": true}

// tagAt parses the tag starting at s[i] == '<'.
func tagAt(s string, i int) (name string, closing, selfClosing bool, end int, err error) {
	j := strings.IndexByte(s[i:], '>')
	if j < 0 {
		return "", false, false, 0, fmt.Errorf("unterminated tag at %d", i)
	}
	end = i + j + 1
	body := s[i+1 : end-1]
	if strings.HasPrefix(body, "/") {
		closing = true
		body = body[1:]
	}
	selfClosing = strings.HasSuffix(body, "/")
	name = strings.TrimSuffix(strings.Fields(body + " ")[0], "/")
	return name, closing, selfClosing || voidTags[name], end, nil
}

// children returns the child elements of the element whose opening
// tag starts at s[pos], and where that element ends.
func children(s string, pos int) ([]elem, int, error) {
	_, closing, self, i, err := tagAt(s, pos)
	if err != nil {
		return nil, 0, err
	}
	if closing || self {
		return nil, i, nil
	}
	var kids []elem
	depth, kidStart := 1, 0
	for {
		k := strings.IndexByte(s[i:], '<')
		if k < 0 {
			return nil, 0, fmt.Errorf("element at %d never closes", pos)
		}
		at := i + k
		_, closing, self, end, err := tagAt(s, at)
		if err != nil {
			return nil, 0, err
		}
		switch {
		case closing:
			depth--
			if depth == 0 {
				return kids, end, nil
			}
			if depth == 1 {
				kids = append(kids, elem{kidStart, end})
			}
		case self:
			if depth == 1 {
				kids = append(kids, elem{at, end})
			}
		default:
			if depth == 1 {
				kidStart = at
			}
			depth++
		}
		i = end
	}
}

// blocks returns the elements that open with prefix, outermost only.
func blocks(s, prefix string) ([]elem, error) {
	var out []elem
	for i := 0; ; {
		k := strings.Index(s[i:], prefix)
		if k < 0 {
			return out, nil
		}
		_, end, err := children(s, i+k)
		if err != nil {
			return nil, err
		}
		out = append(out, elem{i + k, end})
		i = end
	}
}

func sourceOpen(id string) string {
	return `<div class="sym-source" data-source="` + id + `">`
}

func suppOpen(id string) string {
	return `<div class="sym-supplemental" data-source="` + id + `">`
}

// pageItems checks that the page holds exactly one primary block, for
// source id, and returns that block's items.
func pageItems(page, id string) ([]string, error) {
	if n := strings.Count(page, `class="sym-source"`); n != 1 {
		return nil, fmt.Errorf("page has %d primary blocks, want 1", n)
	}
	bs, err := blocks(page, sourceOpen(id))
	if err != nil {
		return nil, err
	}
	if len(bs) != 1 {
		return nil, fmt.Errorf("page has no block for source %q", id)
	}
	b := page[bs[0].start:bs[0].end]
	kids, _, err := children(b, 0)
	if err != nil {
		return nil, err
	}
	items := make([]string, len(kids))
	for i, k := range kids {
		items[i] = b[k.start:k.end]
	}
	return items, nil
}

var skuSpan = regexp.MustCompile(`^<div><span>([KN][0-9]{7})</span>`)

// catalogPage returns the SKUs the catalog app's page lists, in order.
func catalogPage(page string) ([]string, error) {
	items, err := pageItems(page, "catalog")
	if err != nil {
		return nil, err
	}
	skus := make([]string, len(items))
	for i, it := range items {
		m := skuSpan.FindStringSubmatch(it)
		if m == nil {
			return nil, fmt.Errorf("item %d does not start with a SKU: %.80q", i, it)
		}
		skus[i] = m[1]
	}
	return skus, nil
}

// checkCatalogQuery checks a catalog page against the benchmark's own
// index: min(page size, records holding any query word) items, each
// holding a query word, and for a one-word query matching at most a
// page of records, exactly those records.
func (c *catalog) checkCatalogQuery(q catQuery, page string) error {
	skus, err := catalogPage(page)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, sku := range skus {
		i, ok := c.skuIndex[sku]
		if !ok || seen[sku] {
			return fmt.Errorf("query %q: unexpected or repeated item %s", q.text, sku)
		}
		seen[sku] = true
		hit := false
		for _, w := range q.words {
			hit = hit || c.has(i, w)
		}
		if !hit {
			return fmt.Errorf("query %q: item %s holds no query word", q.text, sku)
		}
	}
	if want := c.matches(q, pageSize); len(skus) != want {
		return fmt.Errorf("query %q: %d items, want %d", q.text, len(skus), want)
	}
	if len(q.words) == 1 && len(c.postings[q.words[0]]) <= pageSize {
		for _, i := range c.postings[q.words[0]] {
			if !seen[c.recs[i].sku] {
				return fmt.Errorf("query %q: record %s missing", q.text, c.recs[i].sku)
			}
		}
	}
	return nil
}

// matches returns min(limit, records holding any word of q).
func (c *catalog) matches(q catQuery, limit int) int {
	seen := map[int32]bool{}
	for _, w := range q.words {
		if len(c.postings[w]) >= limit {
			return limit
		}
		for _, i := range c.postings[w] {
			seen[i] = true
		}
	}
	return min(limit, len(seen))
}

// checkMarker checks that a marker query's page lists exactly want.
func checkMarker(m int, page string, want []string) error {
	skus, err := catalogPage(page)
	if err != nil {
		return err
	}
	slices.Sort(skus)
	if !slices.Equal(skus, want) {
		return fmt.Errorf("marker %s: page lists %v, model holds %v", marker(m), skus, want)
	}
	return nil
}

var demoPrimary = map[string]string{"gamerqueen": "inventory", "winefinder": "cellar", "videostore": "catalog"}

var reviewSites = map[string]bool{"gamespot.com": true, "ign.com": true, "teamxbox.com": true}

var (
	hrefAttr  = regexp.MustCompile(`href="([^"]*)"`)
	priceElem = regexp.MustCompile(`^<div class="sym-results"><div><span>Price: </span><span>[0-9]+(\.[0-9]+)?</span><span> In stock: </span><span>(true|false)</span></div></div>$`)
)

// stripSupplementals removes every supplemental block from an item.
func stripSupplementals(item string) (string, error) {
	bs, err := blocks(item, `<div class="sym-supplemental"`)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	last := 0
	for _, s := range bs {
		b.WriteString(item[last:s.start])
		last = s.end
	}
	b.WriteString(item[last:])
	return b.String(), nil
}

// innerOf returns the markup inside the element at s.
func innerOf(item string, s elem) string {
	inner := item[s.start:s.end]
	return inner[strings.IndexByte(inner, '>')+1 : strings.LastIndexByte(inner, '<')]
}

// checkDemoPage checks one demo-app answer. A JSON answer must parse
// and name the app and query asked for; its html is then checked like
// an HTML answer.
func checkDemoPage(q pageQuery, body []byte) error {
	page := string(body)
	if q.json {
		var r struct {
			App, Query, HTML string
			Blocks           int
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("json answer: %w", err)
		}
		if r.App != q.app || r.Query != q.text || r.Blocks != 1 {
			return fmt.Errorf("json answer names app %q query %q blocks %d, asked %q %q", r.App, r.Query, r.Blocks, q.app, q.text)
		}
		page = r.HTML
	}
	items, err := pageItems(page, demoPrimary[q.app])
	if err != nil {
		return err
	}
	foundTitle := false
	for _, it := range items {
		own, err := stripSupplementals(it)
		if err != nil {
			return err
		}
		foundTitle = foundTitle || strings.Contains(own, ">"+html.EscapeString(q.text)+"<")
		if q.app != "gamerqueen" {
			continue
		}
		prices, err := blocks(it, suppOpen("pricing"))
		if err != nil {
			return err
		}
		if len(prices) != 1 || !priceElem.MatchString(innerOf(it, prices[0])) {
			return fmt.Errorf("query %q: item without its pricing element: %.200q", q.text, it)
		}
		reviews, err := blocks(it, suppOpen("reviews"))
		if err != nil {
			return err
		}
		for _, rb := range reviews {
			for _, m := range hrefAttr.FindAllStringSubmatch(it[rb.start:rb.end], -1) {
				if err := checkReviewLink(html.UnescapeString(m[1])); err != nil {
					return fmt.Errorf("query %q: %w", q.text, err)
				}
			}
		}
	}
	if q.title && !foundTitle {
		return fmt.Errorf("title query %q: page lacks the title's item", q.text)
	}
	return nil
}

// checkReviewLink follows the click redirect wrapper to the target and
// checks its site.
func checkReviewLink(href string) error {
	u, err := url.Parse(href)
	if err != nil {
		return fmt.Errorf("review link %q: %w", href, err)
	}
	if t := u.Query().Get("url"); t != "" {
		if u, err = url.Parse(t); err != nil {
			return fmt.Errorf("review link %q: %w", href, err)
		}
	}
	if !reviewSites[u.Hostname()] {
		return fmt.Errorf("review link to %q, outside the app's review sites", u.Hostname())
	}
	return nil
}
