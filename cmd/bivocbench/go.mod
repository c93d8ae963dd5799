module bivoc/cmd/bivocbench

go 1.22

require bivoc v0.0.0

replace bivoc => ../..
