// Package fixture exercises the arenacopy analyzer: string conversions
// of arena-backed block bytes (direct, through local aliases, through
// subslices) must be flagged; the sanctioned escapes — direct map
// indexing, Column.String, an annotated deliberate copy — must not.
//
//wmlint:fixture repro/internal/pipeline
package fixture

import (
	"repro/internal/relation"
)

type key string

func directConversion(col *relation.Column, i int) string {
	return string(col.Value(i)) // want `string conversion copies arena-backed block bytes`
}

func namedStringConversion(col *relation.Column, i int) key {
	return key(col.Value(i)) // want `string conversion copies arena-backed block bytes`
}

func aliasConversion(col *relation.Column, n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		v := col.Value(i)
		out = append(out, string(v)) // want `string conversion copies arena-backed block bytes`
	}
	return out
}

func rawSubsliceConversion(col *relation.Column) string {
	data, offs := col.Raw()
	return string(data[offs[0]:offs[1]]) // want `string conversion copies arena-backed block bytes`
}

func transitiveAlias(col *relation.Column, i int) string {
	v := col.Value(i)
	w := v[1:]
	return string(w) // want `string conversion copies arena-backed block bytes`
}

// mapIndex is the sanctioned classification idiom: a conversion used
// directly as a map index stays on the stack (Domain.IndexBytes).
func mapIndex(m map[string]int, col *relation.Column, i int) int {
	return m[string(col.Value(i))]
}

// sanctionedMaterializer copies out of the arena through the one
// annotated escape hatch.
func sanctionedMaterializer(col *relation.Column, i int) string {
	return col.String(i)
}

// annotatedCopy records its justification, so the finding is suppressed.
func annotatedCopy(col *relation.Column, i int) string {
	//wmlint:ignore arenacopy this value outlives the block by design
	return string(col.Value(i))
}

// nonArenaConversion conversions of unrelated byte slices stay legal.
func nonArenaConversion(b []byte) string {
	return string(b)
}
