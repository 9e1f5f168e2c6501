package main

import (
	"fmt"

	"m/internal/p"
)

func main() { fmt.Println(p.Stats{Sum: 3, N: 2}.Mean(), p.T{}) }
