module github.com/jstar-lang/jstar/benchmark

go 1.24.0

require github.com/jstar-lang/jstar v0.0.0

replace github.com/jstar-lang/jstar => ../
