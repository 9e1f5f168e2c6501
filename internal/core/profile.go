package core

// tenantLabel maps a tenant/client name to its pprof label value; the
// empty tenant profiles as "default" so every sample stays sliceable.
func tenantLabel(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// priorityLabel renders a serving priority for pprof labels.
func priorityLabel(p Priority) string {
	if p == PriorityBackground {
		return "background"
	}
	return "critical"
}
