// Package lib is reached from the fixture's root package, from an init
// function, from an initializer and through dynamic dispatch; the one
// identifier nothing reaches carries a reasoned allow directive.
package lib

// Called is called from the root package.
func Called() int { return len(registry) + len(table) }

// Shape is the interface the root calls through.
type Shape interface{ Area() float64 }

// Square is reached through NewSquare.
type Square struct{ side float64 }

// NewSquare is called from the root package.
func NewSquare(side float64) Square { return Square{side: side} }

// Area is reached only by dispatch through Shape.
func (s Square) Area() float64 { return s.side * s.side }

// Level is named by the root package; fmt and encoding call its methods.
type Level int

// String implements fmt.Stringer.
func (l Level) String() string { return "level" }

// MarshalText implements encoding.TextMarshaler.
func (l Level) MarshalText() ([]byte, error) { return []byte(l.String()), nil }

var registry = map[string]func() int{}

// registered is reached only through the init function below.
func registered() int { return 1 }

func init() { registry["one"] = registered }

// table's initializer runs whether or not anything reads table.
var table = []func() int{fromInitializer}

// fromInitializer is reached only through table's initializer.
func fromInitializer() int { return 2 }

// Oracle has no caller in the tree; an equivalence test reads it.
//
//dhl:allow unreferenced the fixture's equivalence test reads it
func Oracle() int { return oracleHelper() }

// oracleHelper is reached through the allowed Oracle, so it is no
// finding of its own.
func oracleHelper() int { return 3 }
