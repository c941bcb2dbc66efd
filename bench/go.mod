module gstored/bench

go 1.24

require gstored v0.0.0

replace gstored => ../
