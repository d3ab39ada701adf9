// Package wire seeds wirewidth-analyzer violations.
package wire

// Header carries annotated fields; Kind and Ver model the packet
// header's 3-bit kind and 1-bit pool version.
type Header struct {
	Kind uint8 //switchml:wire bits=3
	Ver  uint8 //switchml:wire bits=1
	// want "switchml:wire on wire.Header.Name: not an integer field"
	Name string //switchml:wire bits=4
	// want "switchml:wire bits=16 on wire.Header.Big exceeds its 8-bit Go type"
	Big uint8 //switchml:wire bits=16
}

// Set stores constants into annotated fields.
func Set(h *Header) {
	h.Kind = 7 // fits: max 3-bit value
	h.Kind = 8 // want "constant 8 overflows the 3-bit wire width of wire.Header.Kind"
	h.Ver = 1
}

// Make seeds an overflow through a keyed composite literal.
func Make() Header {
	return Header{Kind: 9} // want "constant 9 overflows the 3-bit wire width of wire.Header.Kind"
}

// Check seeds an overflow in a comparison.
func Check(h *Header) bool {
	return h.Ver == 2 // want "constant 2 overflows the 1-bit wire width of wire.Header.Ver"
}

// InRange compares against a fitting constant: fine.
func InRange(h *Header) bool { return h.Ver == 1 && h.Kind <= 7 }

// Classify seeds an overflow in a case clause of a switch on the field.
func Classify(h *Header) int {
	switch h.Kind {
	case 7: // fits
		return 1
	case 8: // want "constant 8 overflows the 3-bit wire width of wire.Header.Kind"
		return 2
	}
	return 0
}
