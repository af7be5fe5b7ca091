package bsbm

import "repro/internal/sparql"

// The BSBM-BI query templates measured in the paper, expressed in the
// engine's SPARQL subset. The templates capture the data-touching join
// structure of the originals; aggregation post-processing (ratio/top-k
// arithmetic) is not what drives the paper's runtime effects and is
// represented by the ORDER BY/LIMIT epilogue where the original has one.

// QueryQ4 is BSBM-BI Q4: "find the feature with the highest ratio between
// price with that feature and price without that feature", parameterized by
// %ProductType. Its cost is dominated by touching every product of the
// given type together with their features and offers — the E1/E3 query.
const QueryQ4Text = `
PREFIX bsbm: <http://bsbm.example.org/>
SELECT ?feature ?price WHERE {
  ?product a %ProductType .
  ?product bsbm:productFeature ?feature .
  ?offer bsbm:product ?product .
  ?offer bsbm:price ?price .
}`

// QueryQ2Text is BSBM-BI Q2: "find the 10 products most similar to a
// specific product", parameterized by %Product — products sharing features
// with the given one. Feature popularity skew makes its runtime non-normal
// (the KS-distance example in E1).
const QueryQ2Text = `
PREFIX bsbm: <http://bsbm.example.org/>
SELECT ?other ?label WHERE {
  %Product bsbm:productFeature ?f .
  ?other bsbm:productFeature ?f .
  ?other bsbm:label ?label .
} LIMIT 1000`

// QueryQ1Text is a drill-down lookup: offers for products of a type from
// vendors of a country (two-parameter template, used by curation tests).
const QueryQ1Text = `
PREFIX bsbm: <http://bsbm.example.org/>
SELECT ?offer ?price WHERE {
  ?product a %ProductType .
  ?offer bsbm:product ?product .
  ?offer bsbm:price ?price .
  ?offer bsbm:vendor ?vendor .
  ?vendor bsbm:country %Country .
}`

// QueryQ3Text is the deeper drill-down: offers for products of a type that
// carry a specific feature, from vendors of a country. Three parameters and
// six patterns make DPsub join ordering the dominant cost of one-shot
// optimization — the query service's plan-cache benches measure exactly
// that cold cost against the cached path.
const QueryQ3Text = `
PREFIX bsbm: <http://bsbm.example.org/>
SELECT ?offer ?price WHERE {
  ?product a %ProductType .
  ?product bsbm:productFeature %Feature .
  ?offer bsbm:product ?product .
  ?offer bsbm:price ?price .
  ?offer bsbm:vendor ?vendor .
  ?vendor bsbm:country %Country .
}`

// QueryQ5Text is the optional-offers drill-down: every labelled product
// of a type, with its offer prices where offers exist — products without
// offers survive with an unbound ?price. The left join over the skewed
// offer distribution is the compositional-algebra counterpart of Q1's
// inner drill-down.
const QueryQ5Text = `
PREFIX bsbm: <http://bsbm.example.org/>
SELECT ?product ?label ?price WHERE {
  ?product a %ProductType .
  ?product bsbm:label ?label .
  OPTIONAL { ?offer bsbm:product ?product . ?offer bsbm:price ?price . }
}`

// QueryQ6Text is the union drill-down: all market activity — offers or
// reviews — attached to products of a type, as one relation with a
// per-branch attachment variable.
const QueryQ6Text = `
PREFIX bsbm: <http://bsbm.example.org/>
SELECT ?product ?offer ?review WHERE {
  ?product a %ProductType .
  { ?offer bsbm:product ?product . } UNION { ?review bsbm:reviewFor ?product . }
}`

// Q4 returns the parsed Q4 template.
func Q4() *sparql.Query { return sparql.MustParse(QueryQ4Text) }

// Q5 returns the parsed Q5 (optional offers) template.
func Q5() *sparql.Query { return sparql.MustParse(QueryQ5Text) }

// Q6 returns the parsed Q6 (offers-or-reviews union) template.
func Q6() *sparql.Query { return sparql.MustParse(QueryQ6Text) }

// Q2 returns the parsed Q2 template.
func Q2() *sparql.Query { return sparql.MustParse(QueryQ2Text) }

// Q1 returns the parsed Q1 template.
func Q1() *sparql.Query { return sparql.MustParse(QueryQ1Text) }

// Q3 returns the parsed Q3 template.
func Q3() *sparql.Query { return sparql.MustParse(QueryQ3Text) }
