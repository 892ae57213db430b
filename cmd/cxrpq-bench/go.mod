module cxrpq/cmd/cxrpq-bench

go 1.24

require cxrpq v0.0.0

replace cxrpq => ../..
