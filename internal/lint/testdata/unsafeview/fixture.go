// Package fixture exercises the unsafeview analyzer: unsafe.String and
// unsafe.Slice are flagged outside a function carrying a
// //wmlint:ignore unsafeview directive, in its doc comment or its body,
// and pass inside one.
//
//wmlint:fixture repro/internal/relation
package fixture

import "unsafe"

func unannotated(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b)) // want `unsafe.String outside a function carrying`
}

func unannotatedSlice(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s)) // want `unsafe.Slice outside a function carrying`
}

// annotated views bytes its caller never rewrites.
//
//wmlint:ignore unsafeview the caller never rewrites b once viewed
func annotated(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

func annotatedInBody(s string) []byte {
	//wmlint:ignore unsafeview strings are immutable and the view is only read
	if s == "" {
		return nil
	}
	b := unsafe.Slice(unsafe.StringData(s), len(s))
	return b[:len(b):len(b)]
}

func otherAnalyzer(b []byte) string {
	//wmlint:ignore arenacopy a directive for another analyzer does not count
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b)) // want `unsafe.String outside a function carrying`
}

var global = func(b []byte) string { return unsafe.String(&b[0], 1) } // want `unsafe.String outside a function carrying`
