package core_test

import (
	"fmt"
	"log"
	"strconv"

	"repro/internal/core"
	"repro/internal/relation"
)

// The complete ownership-protection flow: watermark a relation, keep the
// certificate, verify a suspect copy years later.
func Example() {
	// A sales relation: order id (primary key) + categorical region code.
	schema := relation.MustSchema([]relation.Attribute{
		{Name: "order_id", Type: relation.TypeInt},
		{Name: "region", Type: relation.TypeString, Categorical: true},
	}, "order_id")
	regions := []string{"EMEA", "APAC", "LATAM", "NA-E", "NA-W", "AFR"}
	r := relation.New(schema)
	for i := 0; i < 3000; i++ {
		r.MustAppend(relation.Tuple{strconv.Itoa(1000 + i), regions[i%len(regions)]})
	}

	rec, stats, err := core.Watermark(r, core.Spec{
		Secret:    "acme-owner-passphrase",
		Attribute: "region",
		WM:        "10110011",
		E:         20,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("altered %d of %d tuples\n", stats.Mark.Altered, r.Len())

	// Verification needs only the certificate and the suspect data.
	rep, err := rec.VerifyWith(r, core.VerifyOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detected %s with %.0f%% agreement\n", rep.Detected, rep.Match*100)
	// Output:
	// altered 123 of 3000 tuples
	// detected 10110011 with 100% agreement
}
