module radixdecluster/benchmark

go 1.23

require radixdecluster v0.0.0

replace radixdecluster => ../
