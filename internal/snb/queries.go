package snb

import "repro/internal/sparql"

// The LDBC interactive query templates measured in the paper, expressed in
// the engine's SPARQL subset.

// QueryQ2Text is LDBC Q2: "finds the newest 20 posts of the user's
// friends", parameterized by %Person. Friend-degree and posting-activity
// skew make its runtime sample-dependent — the E2 stability example.
const QueryQ2Text = `
PREFIX sn: <http://snb.example.org/>
SELECT ?post ?date WHERE {
  %Person sn:knows ?friend .
  ?post sn:hasCreator ?friend .
  ?post sn:creationDate ?date .
} ORDER BY DESC(?date) LIMIT 20`

// QueryQ3Text is LDBC Q3: "finds the friends within two steps that have
// been to countries X and Y". The optimal plan starts either from the
// two-step friendship expansion or from the people who visited both
// countries, depending on how frequently X and Y are co-visited — the E4
// plan-variability example.
const QueryQ3Text = `
PREFIX sn: <http://snb.example.org/>
SELECT DISTINCT ?f2 WHERE {
  %Person sn:knows ?f1 .
  ?f1 sn:knows ?f2 .
  ?f2 sn:hasBeenTo %CountryX .
  ?f2 sn:hasBeenTo %CountryY .
  FILTER(?f2 != %Person)
}`

// QueryQ1Text is the paper's introductory template: persons by first name
// and country of residence. Name↔country correlation makes the two
// parameters jointly selective or unselective.
const QueryQ1Text = `
PREFIX sn: <http://snb.example.org/>
SELECT ?person WHERE {
  ?person sn:firstName %Name .
  ?person sn:livesIn %Country .
}`

// QueryQ4Text is the grouped-counts template: posts per friend of
// %Person, grouped and filtered on the group size — LDBC's "friend
// activity" shape expressed with the compositional algebra (GROUP BY +
// COUNT + HAVING).
const QueryQ4Text = `
PREFIX sn: <http://snb.example.org/>
SELECT ?friend (COUNT(*) AS ?n) WHERE {
  %Person sn:knows ?friend .
  ?post sn:hasCreator ?friend .
} GROUP BY ?friend HAVING(?n >= 1) ORDER BY ?friend`

// Q2 returns the parsed Q2 template.
func Q2() *sparql.Query { return sparql.MustParse(QueryQ2Text) }

// Q4 returns the parsed Q4 (grouped friend activity) template.
func Q4() *sparql.Query { return sparql.MustParse(QueryQ4Text) }

// Q3 returns the parsed Q3 template.
func Q3() *sparql.Query { return sparql.MustParse(QueryQ3Text) }

// Q1 returns the parsed Q1 template.
func Q1() *sparql.Query { return sparql.MustParse(QueryQ1Text) }
