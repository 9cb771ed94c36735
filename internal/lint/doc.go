// Package lint implements voltvet, the repo's stdlib-only static-analysis
// suite. It machine-checks the invariants every golden SHA-256 pin and the
// content-addressed campaign cache silently rely on: the simulation core is
// deterministic and side-effect free, the step-and-restore fast path
// stays allocation free, and the service layer handles locks and errors
// with discipline.
//
// The suite is built purely on go/parser, go/ast, and go/types — no
// golang.org/x/tools dependency — matching the module's stdlib-only rule.
// The loader parses and type-checks every package in the module (stdlib
// imports are resolved through go/importer's source importer), then each
// analyzer walks the typed ASTs and reports named, suppressible
// diagnostics.
//
// # Diagnostic catalog
//
// `voltvet -list` prints the same catalog grouped by analyzer.
//
//	VV-DET001  call to time.Now/Since/Until in a deterministic package
//	VV-DET002  import of math/rand (or v2) in a deterministic package
//	VV-DET003  import of crypto/rand in a deterministic package
//	VV-DET004  environment read (os.Getenv & friends) in a deterministic package
//	VV-DET005  deterministic package imports a service-layer package
//	VV-MAP001  order-sensitive iteration over a map in a deterministic package
//	VV-HOT001  fmt call on the live path of a hot-path function
//	VV-HOT002  string concatenation on the live path of a hot-path function
//	VV-HOT003  capturing closure created on the live path of a hot-path function
//	VV-HOT004  concrete-to-interface conversion on the live path of a hot-path function
//	VV-HOT006  interface dispatch on the hot path
//	VV-SNAP001 mutable field neither captured nor restored by its snapshot pair
//	VV-SNAP002 field captured but never restored
//	VV-SNAP003 field restored but never captured
//	VV-SNAP004 stale voltvet:nosnap waiver on a field that needs none
//	VV-LCK001  sync lock copied by value (parameter or receiver)
//	VV-LCK002  return while a mutex is still locked (no unlock on that path)
//	VV-LCK003  blocking channel send while a mutex is held
//	VV-ERR001  dropped error return outside tests
//	VV-LOAD001 package failed to type-check (analysis may be incomplete)
//	VV-IGN001  malformed voltvet directive (ignore, nosnap, hotpath)
//
// A hot-path function is one in the closure inferred from the functions
// marked with a bare //voltvet:hotpath: everything those roots reach
// through static calls and class-hierarchy-resolved interface dispatch.
// The directive takes no operands; only the roots carry it.
//
// # Suppression
//
// True positives the repo accepts are silenced in place with
//
//	//voltvet:ignore VV-XXXNNN reason the finding is acceptable
//
// on the flagged line or the line directly above it; the reason is
// mandatory. Grandfathered findings can instead be listed in a
// lint.baseline file at the module root (see ParseBaseline), letting the
// gate stay strict for new code while old findings are burned down.
package lint
