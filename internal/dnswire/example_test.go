package dnswire_test

import (
	"fmt"

	"anycastctx/internal/dnswire"
)

func ExampleNewQuery() {
	q := dnswire.NewQuery(0x1234, "com", dnswire.TypeNS)
	wire, err := q.Encode()
	if err != nil {
		panic(err)
	}
	back, err := dnswire.Decode(wire)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d bytes on the wire\n", len(wire))
	fmt.Printf("question: %s %s\n", back.Questions[0].Type, back.Questions[0].Name)
	// Output:
	// 21 bytes on the wire
	// question: NS com
}
